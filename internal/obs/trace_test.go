package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmp/internal/simclock"
)

func testClock() *simclock.ManualClock {
	c := simclock.NewManual(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	c.SetAutoAdvance(time.Millisecond)
	return c
}

func TestSpanParentLinks(t *testing.T) {
	tr := NewTracer(testClock(), 16)
	root := tr.Start("ingest.batch", 0)
	child := tr.Start("ingest.scan", root.ID())
	child.End(KV("records", 3))
	root.End(KV("accepted", 3))
	tr.Emit("batch_admitted", KV("records", 3))

	s := tr.Snapshot()
	if !s.Enabled {
		t.Fatal("snapshot should report enabled")
	}
	if len(s.Spans) != 2 || s.SpansTotal != 2 {
		t.Fatalf("want 2 spans, got %d (total %d)", len(s.Spans), s.SpansTotal)
	}
	// Spans sort by ID: root started first.
	if s.Spans[0].Name != "ingest.batch" || s.Spans[0].Parent != 0 {
		t.Fatalf("bad root span: %+v", s.Spans[0])
	}
	if s.Spans[1].Name != "ingest.scan" || s.Spans[1].Parent != s.Spans[0].ID {
		t.Fatalf("child not linked to root: %+v", s.Spans[1])
	}
	if s.Spans[1].Attrs["records"] != 3 {
		t.Fatalf("child attrs lost: %+v", s.Spans[1].Attrs)
	}
	if s.Spans[0].DurUS <= 0 {
		t.Fatalf("auto-advance clock should yield positive duration, got %d", s.Spans[0].DurUS)
	}
	if len(s.Events) != 1 || s.Events[0].Type != "batch_admitted" || s.Events[0].Seq != 1 {
		t.Fatalf("bad events: %+v", s.Events)
	}
	if len(s.Stages) != 2 || s.Stages[0].Name != "ingest.batch" || s.Stages[1].Name != "ingest.scan" {
		t.Fatalf("stages not sorted by name: %+v", s.Stages)
	}
}

func TestNilAndDisabledTracer(t *testing.T) {
	var nilTr *Tracer
	nilTr.SetEnabled(true) // must not panic
	sp := nilTr.Start("x", 0)
	sp.End(KV("k", 1))
	nilTr.Emit("e")
	s := nilTr.Snapshot()
	if len(s.Spans) != 0 || len(s.Events) != 0 || s.Enabled {
		t.Fatalf("nil tracer snapshot not empty: %+v", s)
	}

	tr := NewTracer(testClock(), 4)
	tr.SetEnabled(false)
	tr.Start("x", 0).End()
	tr.Emit("e")
	s = tr.Snapshot()
	if s.SpansTotal != 0 || s.EventsTotal != 0 {
		t.Fatalf("disabled tracer recorded: %+v", s)
	}
}

// TestDisabledZeroAlloc pins the hot-path contract: with tracing off,
// an instrumentation site (Start + End with attrs, plus an Emit) does
// not allocate. The variadic attr slices must stay on the caller's
// stack, which End/Emit guarantee by copying only when recording.
func TestDisabledZeroAlloc(t *testing.T) {
	tr := NewTracer(testClock(), 16)
	tr.SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("ingest.admit", 0)
		sp.End(KV("records", 500), KV("shards", 8))
		tr.Emit("batch_admitted", KV("records", 500))
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per op, want 0", allocs)
	}
}

func TestRingWrap(t *testing.T) {
	tr := NewTracer(testClock(), 4)
	for i := 0; i < 10; i++ {
		tr.Start("s", 0).End()
		tr.Emit("e", KV("i", int64(i)))
	}
	s := tr.Snapshot()
	if s.SpansTotal != 10 || s.EventsTotal != 10 {
		t.Fatalf("lifetime counters: %d spans, %d events", s.SpansTotal, s.EventsTotal)
	}
	if len(s.Spans) != 4 || len(s.Events) != 4 {
		t.Fatalf("ring should retain 4, got %d spans, %d events", len(s.Spans), len(s.Events))
	}
	// The retained entries are the most recent, in order.
	if s.Events[0].Seq != 7 || s.Events[3].Seq != 10 {
		t.Fatalf("wrong tail retained: %+v", s.Events)
	}
}

// TestTraceDeterministic is the tentpole's determinism contract: the
// same call sequence against a ManualClock with auto-advance renders
// byte-identical trace JSON on a repeated run.
func TestTraceDeterministic(t *testing.T) {
	render := func() []byte {
		tr := NewTracer(testClock(), 64)
		root := tr.Start("ingest.batch", 0)
		scan := tr.Start("ingest.scan", root.ID())
		scan.End(KV("records", 500), KV("bad", 2))
		tr.Emit("batch_admitted", KV("records", 500), KV("shards", 8))
		root.End(KV("accepted", 500))
		cut := tr.Start("epoch.cut", 0)
		tr.Emit("epoch_cut", KV("epoch", 1))
		cut.End(KV("epoch", 1), KV("records", 500))
		tr.Emit("generation_published", KV("epoch", 1), KV("records", 500))
		out, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("double run diverged:\n%s\n%s", a, b)
	}
}

// TestConcurrentTrace exercises the lock-free rings under -race:
// writers append spans and events while a reader snapshots.
func TestConcurrentTrace(t *testing.T) {
	tr := NewTracer(testClock(), 128)
	const writers, perWriter, minSnaps = 8, 200, 20
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var snaps atomic.Int64 // snapshots that found spans already written
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if tr.Snapshot().SpansTotal > 0 {
					snaps.Add(1)
				}
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	var written atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Past perWriter, keep writing until the reader has taken
			// minSnaps snapshots among the writes: a reader that got no
			// CPU while they ran would race with nothing. Both sides
			// yield, so even at GOMAXPROCS=1 the reader snapshots a
			// span before this writer's next atomic would order the
			// span's writes before the snapshot's reads.
			for i := 0; i < perWriter || snaps.Load() < minSnaps; i++ {
				sp := tr.Start("shard.consume", 0)
				sp.End(KV("records", int64(i)))
				runtime.Gosched()
				tr.Emit("batch_admitted", KV("shard", int64(w)))
				written.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := tr.Snapshot()
	if n := written.Load(); s.SpansTotal != n || s.EventsTotal != n {
		t.Fatalf("lost appends: %d spans, %d events of %d each", s.SpansTotal, s.EventsTotal, n)
	}
	if len(s.Spans) != 128 || len(s.Events) != 128 {
		t.Fatalf("full rings should retain capacity: %d spans, %d events", len(s.Spans), len(s.Events))
	}
}

// TestTraceHandlerJSON checks the /v1/trace payload: valid JSON with
// sorted attr-map keys, and byte-identical across repeated GETs when
// nothing new was recorded (the determinism the smoke test and diff
// tooling rely on).
func TestTraceHandlerJSON(t *testing.T) {
	tr := NewTracer(testClock(), 32)
	root := tr.Start("ingest.batch", 0)
	tr.Start("ingest.scan", root.ID()).End(KV("records", 10), KV("bad", 1))
	root.End(KV("accepted", 10), KV("bad", 1))
	tr.Emit("batch_admitted", KV("records", 10))

	mux := http.NewServeMux()
	Mount(mux, NewRegistry(), tr, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func() []byte {
		resp, err := http.Get(srv.URL + "/v1/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return bytes.TrimSpace(buf.Bytes())
	}
	body := get()
	var snap TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if snap.SpansTotal != 2 || len(snap.Events) != 1 {
		t.Fatalf("payload content: %+v", snap)
	}
	// encoding/json serializes map keys sorted; pin that the attr maps
	// actually came out that way on the wire.
	if !bytes.Contains(body, []byte(`"attrs":{"accepted":10,"bad":1}`)) {
		t.Fatalf("attr keys not sorted on the wire:\n%s", body)
	}
	if again := get(); !bytes.Equal(body, again) {
		t.Fatalf("repeated GET diverged:\n%s\n%s", body, again)
	}

	post, err := http.Post(srv.URL+"/v1/trace", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST should 405, got %d", post.StatusCode)
	}
}

func TestMount(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("live_ingest_records_total").Add(7)
	tr := NewTracer(testClock(), 8)
	tr.Start("epoch.cut", 0).End(KV("epoch", 1))

	mux := http.NewServeMux()
	Mount(mux, reg, tr, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, path := range []string{"/v1/metrics", "/v1/trace", "/v1/series"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var v any
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}

	var metrics Snapshot
	getJSON(t, srv.URL+"/v1/metrics", &metrics)
	if metrics.Counters["live_ingest_records_total"] != 7 {
		t.Fatalf("/v1/metrics: %+v", metrics.Counters)
	}
	var trace TraceSnapshot
	getJSON(t, srv.URL+"/v1/trace", &trace)
	if trace.SpansTotal != 1 || trace.Spans[0].Name != "epoch.cut" {
		t.Fatalf("/v1/trace: %+v", trace)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestHistogramCountMatchesBuckets pins the relaxed-consistency fix:
// a snapshot taken while writers are mid-flight must always satisfy
// count == Σbuckets, because the count is derived from the buckets.
func TestHistogramCountMatchesBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.25)
					h.Observe(0.75)
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		var sum int64
		for _, n := range s.Counts {
			sum += n
		}
		if s.Count != sum {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: count %d != Σbuckets %d", i, s.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
}
