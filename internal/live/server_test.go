package live

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Engine) {
	t.Helper()
	e := newTestEngine(t, cfg)
	s := NewServer(e)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv, e
}

func postViews(t *testing.T, client *http.Client, url string, recs []telemetry.ViewRecord) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.EncodeJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/views", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerIngestAndQuery(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	recs := genRecords(1500)
	resp := postViews(t, srv.Client(), srv.URL, recs)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %s: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), `"accepted":1500`) {
		t.Fatalf("ingest body = %s", body)
	}

	// Cut an epoch over the wire and query it.
	snap, err := srv.Client().Post(srv.URL+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(snap.Body)
	snap.Body.Close()
	if !strings.Contains(string(sbody), `"records":1500`) {
		t.Fatalf("snapshot body = %s", sbody)
	}

	q, err := srv.Client().Get(srv.URL + "/v1/query/share?dim=protocol")
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(q.Body)
	q.Body.Close()
	if q.StatusCode != http.StatusOK {
		t.Fatalf("share status = %s", q.Status)
	}
	var want bytes.Buffer
	wantResp, err := ShareOver(e.Generation().Dataset, "protocol", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&want, wantResp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qbody, want.Bytes()) {
		t.Fatalf("HTTP share differs from direct query:\nhttp:   %s\ndirect: %s", qbody, want.String())
	}

	top, err := srv.Client().Get(srv.URL + "/v1/query/top-publishers?n=3")
	if err != nil {
		t.Fatal(err)
	}
	var topResp TopPublishersResponse
	err = json.NewDecoder(top.Body).Decode(&topResp)
	top.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(topResp.Top) != 3 || topResp.Records != 1500 {
		t.Fatalf("top = %+v", topResp)
	}

	win, err := srv.Client().Get(srv.URL + "/v1/query/window?start=2016-01-01&days=50")
	if err != nil {
		t.Fatal(err)
	}
	var winResp WindowResponse
	err = json.NewDecoder(win.Body).Decode(&winResp)
	win.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if winResp.SampledViews != 1500 {
		t.Fatalf("window = %+v", winResp)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, srv, _ := newTestServer(t, Config{})
	for path, wantStatus := range map[string]int{
		"/v1/query/share?dim=bogus":                http.StatusBadRequest,
		"/v1/query/top-publishers?n=-1":            http.StatusBadRequest,
		"/v1/query/window":                         http.StatusBadRequest,
		"/v1/query/window?start=not-a-date":        http.StatusBadRequest,
		"/v1/query/window?start=2016-01-01&days=x": http.StatusBadRequest,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}
	// Method checks.
	resp, err := srv.Client().Get(srv.URL + "/v1/views")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/views = %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/snapshot = %d", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/metrics = %d", resp.StatusCode)
	}
}

// TestServerIngestCountsBadLines: a JSONL body's bad lines — one that
// does not parse, one record with no publisher — are counted and
// skipped, not a reason to refuse the batch: the good records are a
// 202, the bad ones show in its body and on the rejected counter, and
// no scan error is recorded. The engine is a default one, so its
// tracer is off and the whole ingest must leave no span behind.
func TestServerIngestCountsBadLines(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := telemetry.EncodeJSONL(&buf, genRecords(2)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("garbage\n{\"viewsec\":3}\n")
	resp, err := srv.Client().Post(srv.URL+"/v1/views", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %s, want 202: %s", resp.Status, body)
	}
	if want := `{"accepted":2,"backpressured":0,"rejected":2}` + "\n"; string(body) != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if got := e.Metrics().Counter("live_ingest_rejected_total").Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	if got := e.Metrics().Counter("live_ingest_scan_errors_total").Load(); got != 0 {
		t.Fatalf("scan_errors = %d, want 0: bad lines are not a cut-short stream", got)
	}
	if g := e.Snapshot(); g.Records != 2 {
		t.Fatalf("generation has %d records, want the 2 good ones", g.Records)
	}
	if ts := e.Tracer().Snapshot(); ts.SpansTotal != 0 {
		t.Fatalf("disabled tracer recorded %d spans", ts.SpansTotal)
	}
}

func TestServerOversizedLine(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := telemetry.EncodeJSONL(&buf, genRecords(3)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Repeat("y", telemetry.MaxLineBytes+1) + "\n")
	resp, err := srv.Client().Post(srv.URL+"/v1/views", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
	if got := e.Metrics().Counter("live_ingest_scan_errors_total").Load(); got != 1 {
		t.Fatalf("scan_errors = %d, want 1", got)
	}
	if got := e.Metrics().Counter("live_ingest_rejected_total").Load(); got != 3 {
		t.Fatalf("rejected = %d, want 3 (the cut-short batch)", got)
	}
	if g := e.Snapshot(); g.Records != 0 {
		t.Fatalf("failed batch leaked %d records into the epoch", g.Records)
	}
}

// TestServerBackpressure429 is TestBackpressureIsABoundOnUncutRecords
// over HTTP: one POST fills a depth-1 engine's backlog, the next is a
// 429 with the hint in header and body, a query still answers, and
// after POST /v1/snapshot the same body is a 202.
func TestServerBackpressure429(t *testing.T) {
	_, srv, _ := newTestServer(t, Config{QueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	recs := genRecords(recordsPerBatch + 10)
	resp := postViews(t, srv.Client(), srv.URL, recs[:recordsPerBatch])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch that fills the backlog = %s", resp.Status)
	}
	resp = postViews(t, srv.Client(), srv.URL, recs[recordsPerBatch:])
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at the ceiling = %s, want 429", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (1.5s rounded up)", got, "2")
	}
	if !strings.Contains(string(body), `"backpressured":10`) || !strings.Contains(string(body), `"retry_after_ms":1500`) {
		t.Fatalf("backpressure body = %s", body)
	}
	for _, step := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/query/share?dim=protocol", http.StatusOK},
		{http.MethodPost, "/v1/snapshot", http.StatusOK},
	} {
		req, err := http.NewRequest(step.method, srv.URL+step.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != step.want {
			t.Fatalf("%s %s with the backlog full = %s", step.method, step.path, resp.Status)
		}
	}
	resp = postViews(t, srv.Client(), srv.URL, recs[recordsPerBatch:])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after the cut = %s, want 202", resp.Status)
	}
}

// TestServerMixedWorkloadRace drives concurrent ingest, queries,
// snapshots, and metrics scrapes through the HTTP surface — the
// workload go test -race vets for the "ingestion never blocks queries"
// contract — then closes the loop by checking no admitted record was
// lost.
func TestServerMixedWorkloadRace(t *testing.T) {
	_, srv, e := newTestServer(t, Config{QueueDepth: 16})
	client := srv.Client()

	const writers, batches, per = 4, 10, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := genRecords((w*batches + b + 1) * per)[:per]
				for {
					var buf bytes.Buffer
					if err := telemetry.EncodeJSONL(&buf, recs); err != nil {
						t.Error(err)
						return
					}
					resp, err := client.Post(srv.URL+"/v1/views", "application/x-ndjson", &buf)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted {
						mu.Lock()
						accepted += per
						mu.Unlock()
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("ingest status = %s", resp.Status)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			paths := []string{
				"/v1/query/share?dim=cdn",
				"/v1/query/top-publishers?n=5",
				"/v1/query/window?start=2016-01-01&days=50",
				"/v1/metrics",
				"/v1/trace",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status = %s", resp.Status)
					return
				}
			}
		}()
	}
	snapper := make(chan struct{})
	go func() {
		defer close(snapper)
		for i := 0; i < 20; i++ {
			e.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-snapper
	close(stop)
	readers.Wait()

	g := e.Snapshot()
	if g.Records != accepted {
		t.Fatalf("final generation has %d records, accepted %d", g.Records, accepted)
	}
}

// postRaw posts body with explicit Content-Type / Content-Encoding
// headers through client, reusing its connection pool.
func postRaw(t *testing.T, client *http.Client, url, ct, ce string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/views", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if ce != "" {
		req.Header.Set("Content-Encoding", ce)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func encodeBinary(t *testing.T, recs []telemetry.ViewRecord) []byte {
	t.Helper()
	frame, err := wire.NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func gzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerUnknownContentType pins the negotiation contract: a media
// type or content coding the server does not speak is a 415, not a
// scan error, and admits nothing.
func TestServerUnknownContentType(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	frame := encodeBinary(t, genRecords(5))
	for _, tc := range []struct{ name, ct, ce string }{
		{"unknown_media_type", "application/xml", ""},
		{"unknown_coding", "application/x-ndjson", "br"},
		{"binary_unknown_coding", wire.ContentTypeBinary, "deflate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRaw(t, srv.Client(), srv.URL, tc.ct, tc.ce, frame)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("status = %s, want 415", resp.Status)
			}
		})
	}
	if got := e.Metrics().Counter("live_ingest_scan_errors_total").Load(); got != 0 {
		t.Fatalf("negotiation failures counted as scan errors: %d", got)
	}
	if g := e.Snapshot(); g.Records != 0 {
		t.Fatalf("415 requests leaked %d records", g.Records)
	}
}

// TestServerTruncatedBinaryFrame pins the whole-batch-reject contract
// on the binary path: a frame cut mid-payload is a 400, bumps the
// scan-error counter, and admits none of the batch, so a client retry
// of the full body is exact.
func TestServerTruncatedBinaryFrame(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	frame := encodeBinary(t, genRecords(50))
	for _, tc := range []struct {
		name string
		body []byte
		ce   string
	}{
		{"cut_payload", frame[:len(frame)-7], ""},
		{"cut_prefix", frame[:2], ""},
		{"corrupt_magic", append([]byte{frame[0], frame[1], frame[2], frame[3], 'X'}, frame[5:]...), ""},
		{"cut_gzip", gzipBytes(t, frame)[:8], "gzip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := e.Metrics().Counter("live_ingest_scan_errors_total").Load()
			resp := postRaw(t, srv.Client(), srv.URL, wire.ContentTypeBinary, tc.ce, tc.body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %s, want 400", resp.Status)
			}
			if got := e.Metrics().Counter("live_ingest_scan_errors_total").Load(); got != before+1 {
				t.Fatalf("scan_errors = %d, want %d", got, before+1)
			}
		})
	}
	if g := e.Snapshot(); g.Records != 0 {
		t.Fatalf("rejected frames leaked %d records", g.Records)
	}
}

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// a quarter of what it is handed, so pool pins do not hold there.
var raceEnabled bool

// TestServerErrorPathsReturnDecoder pins the decoder pool on the paths
// that return early: a 415 and a bad frame's 400 must each hand their
// decoder back, so under sustained bad traffic the pool, not the heap,
// supplies the next one. AllocsPerRun runs at GOMAXPROCS=1, where the
// decoder one request Puts is the one the next Gets; a lost one shows
// up as a fresh Decoder per request.
func TestServerErrorPathsReturnDecoder(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	s := NewServer(newTestEngine(t, Config{}))
	frame := encodeBinary(t, genRecords(5))
	for _, tc := range []struct {
		name, ct string
		body     []byte
		status   int
		max      float64
	}{
		{"unsupported_media", "application/xml", frame, http.StatusUnsupportedMediaType, 17},
		{"corrupt_magic", wire.ContentTypeBinary, append([]byte{frame[0], frame[1], frame[2], frame[3], 'X'}, frame[5:]...), http.StatusBadRequest, 20},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/views", nil)
		req.Header.Set("Content-Type", tc.ct)
		post := func() {
			req.Body = io.NopCloser(bytes.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.handleViews(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
			}
		}
		post() // the pool's first decoder
		if got := testing.AllocsPerRun(100, post); got > tc.max {
			t.Errorf("%s: %.0f allocs per request, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// TestServerMixedEncodingsOneConnection interleaves JSONL, binary, and
// gzip-compressed batches over one keep-alive client against a single
// server: negotiation is per-request, so every combination lands and
// the query surface answers identically to a JSONL-only twin server
// fed the same records.
func TestServerMixedEncodingsOneConnection(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	_, refSrv, refEngine := newTestServer(t, Config{})
	client := srv.Client()

	all := genRecords(400)
	jsonl := func(recs []telemetry.ViewRecord) []byte {
		var buf bytes.Buffer
		if err := telemetry.EncodeJSONL(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	type batch struct {
		ct, ce string
		body   []byte
	}
	batches := []batch{
		{"application/x-ndjson", "", jsonl(all[0:100])},
		{wire.ContentTypeBinary, "", encodeBinary(t, all[100:200])},
		{wire.ContentTypeBinary, "gzip", gzipBytes(t, encodeBinary(t, all[200:300]))},
		{"application/x-ndjson", "gzip", gzipBytes(t, jsonl(all[300:400]))},
	}
	for i, b := range batches {
		resp := postRaw(t, client, srv.URL, b.ct, b.ce, b.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d (%s/%s) = %s: %s", i, b.ct, b.ce, resp.Status, body)
		}
	}
	// The reference server ingests the same records as plain JSONL.
	resp := postViews(t, refSrv.Client(), refSrv.URL, all)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference ingest = %s", resp.Status)
	}

	if g := e.Snapshot(); g.Records != len(all) {
		t.Fatalf("mixed-encoding server has %d records, want %d", g.Records, len(all))
	}
	refEngine.Snapshot()
	for _, path := range []string{
		"/v1/query/share?dim=protocol",
		"/v1/query/share?dim=cdn&by=views",
		"/v1/query/top-publishers?n=5",
		"/v1/query/window?start=2016-01-01&days=50",
	} {
		got := getBody(t, client, srv.URL+path)
		want := getBody(t, refSrv.Client(), refSrv.URL+path)
		if !bytes.Equal(got, want) {
			t.Fatalf("query %s differs between mixed-encoding and JSONL ingest:\nmixed: %s\njsonl: %s", path, got, want)
		}
	}
}

func getBody(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	return body
}

func TestServerHealthz(t *testing.T) {
	_, srv, _ := newTestServer(t, Config{})
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %s %s", resp.Status, body)
	}
	if testing.Verbose() {
		fmt.Println("healthz ok")
	}
}

// blanks is an endless JSONL body of blank lines; io.LimitReader cuts
// it to size.
type blanks struct{}

var blankLine = append(bytes.Repeat([]byte{' '}, 4095), '\n')

func (blanks) Read(p []byte) (n int, err error) {
	for n < len(p) {
		n += copy(p[n:], blankLine)
	}
	return n, nil
}

// oneDecoder makes the server's pool hand out a single decoder, so
// consecutive requests provably decode on the same scratch.
func oneDecoder(s *Server) {
	dec := wire.NewDecoder()
	s.decoders.New = func() any { return dec }
}

// TestServerBodyCap: a body past wire.MaxBodyBytes — a small gzip body
// that inflates past it, or a plain one that is simply that long — is
// a 413 that admits nothing and is counted once, and the decoder it
// was cut short on decodes the next body correctly.
func TestServerBodyCap(t *testing.T) {
	s, srv, e := newTestServer(t, Config{})
	oneDecoder(s)
	recs := genRecords(40)
	var jsonl bytes.Buffer
	if err := telemetry.EncodeJSONL(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	oversize := e.Metrics().Counter("live_ingest_oversize_total")

	// One gzip member of records, then the same 1 MiB member of blank
	// lines over and over: gzip readers concatenate members.
	bomb := gzipBytes(t, jsonl.Bytes())
	blank := gzipBytes(t, bytes.Repeat(blankLine, 256))
	for i := 0; i <= wire.MaxBodyBytes>>20; i++ {
		bomb = append(bomb, blank...)
	}
	if len(bomb) > 1<<20 {
		t.Fatalf("gzip bomb is %d bytes on the wire; want it under 1 MiB", len(bomb))
	}
	resp := postRaw(t, srv.Client(), srv.URL, wire.ContentTypeJSONL, "gzip", bomb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb = %s, want 413", resp.Status)
	}
	if got := oversize.Load(); got != 1 {
		t.Fatalf("live_ingest_oversize_total = %d after the gzip bomb, want 1", got)
	}

	// The plain body goes to the handler directly: the bound on the
	// connection's bytes is http.MaxBytesReader's, loopback or not.
	req := httptest.NewRequest(http.MethodPost, "/v1/views",
		io.MultiReader(bytes.NewReader(jsonl.Bytes()), io.LimitReader(blanks{}, wire.MaxBodyBytes)))
	req.Header.Set("Content-Type", wire.ContentTypeJSONL)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("plain oversized body = %d, want 413", rec.Code)
	}
	if got := oversize.Load(); got != 2 {
		t.Fatalf("live_ingest_oversize_total = %d after both, want 2", got)
	}
	if got := e.Metrics().Counter("live_ingest_records_total").Load(); got != 0 {
		t.Fatalf("oversized bodies admitted %d records", got)
	}

	resp = postRaw(t, srv.Client(), srv.URL, wire.ContentTypeJSONL, "", jsonl.Bytes())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good body after the oversized ones = %s", resp.Status)
	}
	telemetry.CanonicalSort(recs)
	if g := e.Snapshot(); !reflect.DeepEqual(g.Dataset.All(), recs) {
		t.Fatalf("generation after the oversized bodies has %d records, want exactly the %d posted", g.Records, len(recs))
	}
}

// TestServerJSONLSlotReuseDoesNotAlias: lines the fast parser does not
// vouch for are decoded by encoding/json all the same, the scrape says
// how many there were, and decoding them on a reused decoder leaves
// earlier admissions alone. An ampersand in a URL is the everyday
// case: json.Marshal escapes it.
func TestServerJSONLSlotReuseDoesNotAlias(t *testing.T) {
	s, srv, e := newTestServer(t, Config{})
	oneDecoder(s)
	fallback := e.Metrics().Counter("live_ingest_jsonl_fallback_total")

	// Body A is canonical and leaves CDN views in the decoder's slots;
	// body B's lines all take the fallback, with longer lists. A's
	// records, already admitted, must not change under B's decode.
	a := genRecords(60)
	b := genRecords(60)
	for i := range b {
		b[i].URL += "?a=1&b=2"
		b[i].CDNs = []string{"W", "X", "Y", "Z"}
		b[i].Bitrates = []int{9, 8, 7, 6}
	}
	for i, recs := range [][]telemetry.ViewRecord{a, b} {
		resp := postViews(t, srv.Client(), srv.URL, recs)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("body %d = %s", i, resp.Status)
		}
		if got, want := fallback.Load(), int64(i*len(b)); got != want {
			t.Fatalf("live_ingest_jsonl_fallback_total = %d after body %d, want %d", got, i, want)
		}
	}
	want := append(append([]telemetry.ViewRecord(nil), a...), b...)
	telemetry.CanonicalSort(want)
	if g := e.Snapshot(); !reflect.DeepEqual(g.Dataset.All(), want) {
		t.Fatal("the generation is not the two bodies' records: a fallback decode rewrote an admitted batch")
	}
}
