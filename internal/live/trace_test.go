package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/simclock"
)

// TestEngineTraceDeterministic pins the tentpole contract: a fixed
// ingest schedule on a frozen manual clock renders byte-identical
// trace JSON across runs. Admission is synchronous — every span of a
// batch has ended when Ingest returns — so a serial schedule assigns
// span IDs in one order.
func TestEngineTraceDeterministic(t *testing.T) {
	run := func() []byte {
		tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 256)
		e := NewEngine(Config{
			QueueDepth: 64,
			Clock:      simclock.NewManual(simclock.StudyStart),
			Trace:      tr,
		})
		recs := genRecords(100)
		for lo := 0; lo < len(recs); lo += 25 {
			if _, err := e.Ingest(recs[lo : lo+25]); err != nil {
				t.Fatal(err)
			}
		}
		e.Snapshot()
		out, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace JSON diverged across identical runs:\n%s\n%s", a, b)
	}

	var snap obs.TraceSnapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	// 4 ingest rounds, one admit each; plus the cut and its stages (no
	// WAL here, so no epoch.checkpoint).
	wantStages := map[string]int64{"ingest.admit": 4, "epoch.cut": 1, "epoch.flush": 1, "epoch.sort": 1, "epoch.merge": 1, "epoch.checkpoint": 0}
	got := map[string]int64{}
	for _, st := range snap.Stages {
		got[st.Name] = st.Count
	}
	for name, want := range wantStages {
		if got[name] != want {
			t.Fatalf("stage %s: count %d, want %d (stages: %+v)", name, got[name], want, snap.Stages)
		}
	}
	// The event log carries the admissions and the publication.
	var admitted, published int
	for _, ev := range snap.Events {
		switch ev.Type {
		case "batch_admitted":
			admitted++
		case "generation_published":
			published++
			if ev.Attrs["records"] != 100 || ev.Attrs["delta"] != 100 {
				t.Fatalf("generation_published attrs: %+v", ev.Attrs)
			}
		}
	}
	if admitted != 4 || published != 1 {
		t.Fatalf("events: %d admitted, %d published (%+v)", admitted, published, snap.Events)
	}
}

// TestCutStagesTraced pins the cut's stage vocabulary: every cut is
// epoch.flush, epoch.sort, epoch.merge and — with a WAL — an
// epoch.checkpoint, each a child of epoch.cut carrying the cut's delta
// and record count, and epoch.checkpoint says whether the log wrote a
// checkpoint or had not earned one.
func TestCutStagesTraced(t *testing.T) {
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 256)
	e := newTestEngine(t, Config{Trace: tr, WAL: openTestWAL(t, t.TempDir())})
	recs := genRecords(1100)
	mustIngest(t, e, recs[:1000])
	e.Snapshot() // a log without a checkpoint writes one
	mustIngest(t, e, recs[1000:])
	e.Snapshot() // 100 records more have not earned the next

	snap := tr.Snapshot()
	cuts := map[uint64]int{} // epoch.cut span ID → which cut
	for _, sp := range snap.Spans {
		if sp.Name == "epoch.cut" {
			cuts[sp.ID] = len(cuts)
		}
	}
	want := []struct{ delta, records, written int64 }{
		{delta: 1000, records: 1000, written: 1},
		{delta: 100, records: 1100, written: 0},
	}
	seen := map[string]int{}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "epoch.flush", "epoch.sort", "epoch.merge", "epoch.checkpoint":
		default:
			continue
		}
		cut, ok := cuts[sp.Parent]
		if !ok {
			t.Fatalf("%s span %d is not a child of an epoch.cut: %+v", sp.Name, sp.ID, sp)
		}
		seen[sp.Name]++
		if sp.Attrs["delta"] != want[cut].delta || sp.Attrs["records"] != want[cut].records {
			t.Fatalf("cut %d %s: attrs %v, want delta %d records %d", cut, sp.Name, sp.Attrs, want[cut].delta, want[cut].records)
		}
		written, ok := sp.Attrs["written"]
		if isCkpt := sp.Name == "epoch.checkpoint"; ok != isCkpt || (isCkpt && written != want[cut].written) {
			t.Fatalf("cut %d %s: written=%d (present %v), want %d on epoch.checkpoint only", cut, sp.Name, written, ok, want[cut].written)
		}
	}
	for _, name := range []string{"epoch.flush", "epoch.sort", "epoch.merge", "epoch.checkpoint"} {
		if seen[name] != 2 {
			t.Fatalf("%d %s spans over two cuts (all: %v)", seen[name], name, seen)
		}
	}
}

// TestIngestBackpressureTraced checks the rejection path emits a
// batch_rejected event and ends the admit span with the backpressure
// attribute.
func TestIngestBackpressureTraced(t *testing.T) {
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 64)
	e := newTestEngine(t, Config{QueueDepth: 1, Trace: tr})
	// The first batch fills the backlog to its ceiling; the second is
	// refused.
	recs := genRecords(recordsPerBatch)
	if res, err := e.Ingest(recs); err != nil || res.Accepted != len(recs) {
		t.Fatalf("first batch: %+v, %v", res, err)
	}
	if res, err := e.Ingest(recs[:200]); err != nil || res.Backpressured != 200 {
		t.Fatalf("batch at the ceiling: %+v, %v", res, err)
	}
	snap := tr.Snapshot()
	var ev, sp bool
	for _, e := range snap.Events {
		if e.Type == "batch_rejected" {
			ev = true
		}
	}
	for _, s := range snap.Spans {
		if s.Name == "ingest.admit" && s.Attrs["backpressured"] > 0 {
			sp = true
		}
	}
	if !ev || !sp {
		t.Fatalf("rejection not traced (event=%v span=%v): %+v", ev, sp, snap)
	}
}

// TestServerTraceEndpoint drives the HTTP surface end to end: ingest a
// batch, cut an epoch, run a query, then check /v1/trace shows the
// full span vocabulary and /v1/metrics the counters beside it.
func TestServerTraceEndpoint(t *testing.T) {
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 256)
	_, srv, e := newTestServer(t, Config{QueueDepth: 64, Trace: tr})
	client := srv.Client()

	resp := postViews(t, client, srv.URL, genRecords(50))
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	e.Snapshot()
	qresp, err := client.Get(srv.URL + "/v1/query/share?dim=protocol")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, qresp.Body)
	_ = qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qresp.StatusCode)
	}

	tresp, err := client.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tresp.Body.Close() }()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace status %d", tresp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(tresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	names := map[string]obs.SpanJSON{}
	for _, sp := range snap.Spans {
		names[sp.Name] = sp
	}
	for _, want := range []string{"ingest.batch", "ingest.scan", "ingest.admit", "epoch.cut", "query.share"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing span %q in /v1/trace (have %v)", want, names)
		}
	}
	// One POST, one tree: the handler's stages hang off its root span.
	for _, child := range []string{"ingest.scan", "ingest.admit"} {
		if names[child].Parent != names["ingest.batch"].ID {
			t.Fatalf("span %s is not a child of ingest.batch: %+v", child, names[child])
		}
	}
	if names["ingest.scan"].Attrs["records"] != 50 {
		t.Fatalf("ingest.scan attrs: %+v", names["ingest.scan"])
	}
	types := map[string]bool{}
	for _, ev := range snap.Events {
		types[ev.Type] = true
	}
	for _, want := range []string{"batch_admitted", "epoch_cut", "generation_published"} {
		if !types[want] {
			t.Fatalf("missing event %q in /v1/trace (have %v)", want, types)
		}
	}

	if snap.SpansTotal == 0 {
		t.Fatal("trace total empty")
	}

	mresp, err := client.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mresp.Body.Close() }()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", mresp.StatusCode)
	}
	var metrics obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Counters["live_ingest_records_total"] != 50 {
		t.Fatalf("metrics ingested: %+v", metrics.Counters)
	}
}
