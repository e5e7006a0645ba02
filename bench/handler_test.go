package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

var (
	testInputsOnce sync.Once
	testRecs       []telemetry.ViewRecord
	testWindow     time.Time
)

// testRecords generates the quick dataset once per test binary.
func testRecords() ([]telemetry.ViewRecord, []query) {
	testInputsOnce.Do(func() {
		testRecs, testWindow = generate(options{quick: true}.studyConfig(7))
	})
	return testRecs, queryMix(testWindow)
}

// handlerPair is the production handler and the traced mirror, each in
// front of its own engine so the same request sequence leaves both in
// the same state.
type handlerPair struct {
	engines [2]*live.Engine
	real    http.Handler
	traced  http.Handler
	rec     *recorder
}

func newHandlerPair(t *testing.T, cfg live.Config) *handlerPair {
	t.Helper()
	p := &handlerPair{rec: newRecorder(simclock.Wall())}
	for i := range p.engines {
		p.engines[i] = live.NewEngine(cfg)
		t.Cleanup(func() { p.engines[i].Close() })
	}
	p.real = live.NewServer(p.engines[0]).Handler()
	p.traced = newTracedHandler(p.engines[1], p.rec, nil, live.NewServer(p.engines[1]).Handler())
	return p
}

func serve(h http.Handler, method, path string, hdr map[string]string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// same sends one request to both handlers and requires byte-identical
// status, headers and body. It returns the status.
func (p *handlerPair) same(t *testing.T, method, path string, hdr map[string]string, body []byte) int {
	t.Helper()
	a := serve(p.real, method, path, hdr, body)
	b := serve(p.traced, method, path, hdr, body)
	if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || !reflect.DeepEqual(a.Header(), b.Header()) {
		t.Errorf("%s %s:\n live.Server: %d %v %q\n traced:      %d %v %q", method, path,
			a.Code, a.Header(), a.Body.String(), b.Code, b.Header(), b.Body.String())
	}
	return a.Code
}

func TestTracedHandlerMatchesLiveServer(t *testing.T) {
	recs, mix := testRecords()
	p := newHandlerPair(t, live.Config{})
	binary, err := encodeBinary(recs[:1000], 500)
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := encodeJSONLGzip(recs[1000:1400], 200)
	if err != nil {
		t.Fatal(err)
	}
	binHdr := map[string]string{"Content-Type": binary.contentType}
	gzHdr := map[string]string{"Content-Type": jsonl.contentType, "Content-Encoding": "gzip"}

	for _, b := range binary.bodies {
		if code := p.same(t, "POST", "/v1/views", binHdr, b.data); code != http.StatusAccepted {
			t.Fatalf("binary POST = %d", code)
		}
	}
	for _, b := range jsonl.bodies {
		if code := p.same(t, "POST", "/v1/views", gzHdr, b.data); code != http.StatusAccepted {
			t.Fatalf("gzip JSONL POST = %d", code)
		}
	}
	// A JSONL body with a malformed line is acked with rejected:1.
	p.same(t, "POST", "/v1/views", nil, []byte("{not json}\n"))

	if code := p.same(t, "POST", "/v1/views", gzHdr, []byte("this is not gzip")); code != http.StatusBadRequest {
		t.Errorf("corrupt gzip = %d, want 400", code)
	}
	truncated := binary.bodies[0].data[:len(binary.bodies[0].data)/2]
	if code := p.same(t, "POST", "/v1/views", binHdr, truncated); code != http.StatusBadRequest {
		t.Errorf("truncated frame = %d, want 400", code)
	}
	if code := p.same(t, "POST", "/v1/views", map[string]string{"Content-Type": "image/png"}, nil); code != http.StatusUnsupportedMediaType {
		t.Errorf("unknown media type = %d, want 415", code)
	}
	if code := p.same(t, "GET", "/v1/views", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/views = %d, want 405", code)
	}

	for _, e := range p.engines {
		if g := e.Snapshot(); g.Records != 1400 {
			t.Fatalf("generation holds %d records, want 1400", g.Records)
		}
	}
	for _, q := range mix {
		if code := p.same(t, "GET", q.path, nil, nil); code != http.StatusOK {
			t.Errorf("GET %s = %d", q.path, code)
		}
	}
	for _, path := range []string{
		"/v1/query/share", // defaults: protocol by viewhours
		"/v1/query/share?dim=bogus",
		"/v1/query/share?by=bogus",
		"/v1/query/top-publishers",
		"/v1/query/top-publishers?n=0",
		"/v1/query/window",
		"/v1/query/window?start=yesterday",
		"/v1/query/window?start=2017-03-01T00:00:00Z&days=-1",
		"/v1/stats", // falls through to the production handler
	} {
		p.same(t, "GET", path, nil, nil)
	}
	if code := p.same(t, "POST", mix[0].path, nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST to a query = %d, want 405", code)
	}
}

// first429 posts small batches at a one-shard, depth-one engine until
// the queue is full and a batch is refused. With one processor the
// shard's consumer cannot run between back-to-back admissions, so the
// third POST is refused; the loop covers a preemption in between.
func first429(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if w := serve(h, "POST", "/v1/views", nil, body); w.Code == http.StatusTooManyRequests {
			return w
		}
	}
	t.Fatal("no 429 in 5000 POSTs at a depth-one queue")
	return nil
}

func TestTracedHandlerMatchesLiveServerOn429(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recs, _ := testRecords()
	var body bytes.Buffer
	if err := telemetry.EncodeJSONL(&body, recs[:10]); err != nil {
		t.Fatal(err)
	}
	p := newHandlerPair(t, live.Config{Shards: 1, QueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	a := first429(t, p.real, body.Bytes())
	b := first429(t, p.traced, body.Bytes())
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || !reflect.DeepEqual(a.Header(), b.Header()) {
		t.Errorf("429:\n live.Server: %v %q\n traced:      %v %q", a.Header(), a.Body.String(), b.Header(), b.Body.String())
	}
	if a.Header().Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want 2 (1.5 s rounded up)", a.Header().Get("Retry-After"))
	}
}

// The four stages of the traced ingest handler must account for the
// handler's own span, or the per-layer numbers would not sum to the
// end-to-end one.
func TestIngestStagesCoverHandlerSpan(t *testing.T) {
	recs, _ := testRecords()
	set, err := encodeBinary(recs[:20000], walBatch)
	if err != nil {
		t.Fatal(err)
	}
	p := newHandlerPair(t, live.Config{})
	hdr := map[string]string{"Content-Type": wire.ContentTypeBinary}
	for _, b := range set.bodies {
		if w := serve(p.traced, "POST", "/v1/views", hdr, b.data); w.Code != http.StatusAccepted {
			t.Fatalf("POST = %d %s", w.Code, w.Body.String())
		}
	}
	stats := selfTimes(p.rec.take())
	root := stats["handler.views"]
	if root == nil || root.Count != len(set.bodies) {
		t.Fatalf("handler.views spans = %+v, want %d", root, len(set.bodies))
	}
	var stages time.Duration
	for _, name := range []string{"nethttp.read_body", "wire.decode", "live.admit", "nethttp.respond"} {
		if stats[name] == nil || stats[name].Count != root.Count {
			t.Fatalf("%s spans = %+v, want %d", name, stats[name], root.Count)
		}
		stages += stats[name].Total
	}
	if share := float64(stages) / float64(root.Total); share < 0.95 {
		t.Errorf("stages cover %.1f%% of the handler span, want ≥ 95%%", 100*share)
	}
	if got := float64(root.Self) / float64(root.Total); got > 0.05 {
		t.Errorf("handler self time is %.1f%% of its span", 100*got)
	}
}
