package live

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// genRecords builds a deterministic record set: many publishers, mixed protocols/devices/CDNs, and deliberately colliding
// timestamps so canonical ordering (not arrival order) is what makes
// generations reproducible.
func genRecords(n int) []telemetry.ViewRecord {
	urls := []string{"http://cdn/a.m3u8", "http://cdn/b.mpd", "http://cdn/c.ism", "http://cdn/d.f4m"}
	devices := []string{"Roku", "iPhone", "HTML5", "FireTV"}
	cdns := [][]string{{"A"}, {"B"}, {"A", "B"}, {"C"}}
	recs := make([]telemetry.ViewRecord, n)
	for i := range recs {
		recs[i] = telemetry.ViewRecord{
			Timestamp: simclock.DayTime(i % 50),
			Publisher: fmt.Sprintf("pub-%02d", i%17),
			VideoID:   fmt.Sprintf("v-%03d", i%101),
			URL:       urls[i%len(urls)],
			Device:    devices[i%len(devices)],
			CDNs:      cdns[i%len(cdns)],
			Geo:       fmt.Sprintf("US-%02d", i%7),
			ViewSec:   float64(30 + i%900),
			Weight:    1 + float64(i%5),
		}
	}
	return recs
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewManual(simclock.StudyStart)
	}
	e := NewEngine(cfg)
	t.Cleanup(func() { e.Close() })
	return e
}

func mustIngest(t *testing.T, e *Engine, recs []telemetry.ViewRecord) {
	t.Helper()
	// Send in small batches. Only a cut clears backpressure, so a
	// refusal here is the test's ceiling being too low, not a wait.
	for lo := 0; lo < len(recs); lo += 500 {
		res, err := e.Ingest(recs[lo:min(lo+500, len(recs))])
		if err != nil {
			t.Fatal(err)
		}
		if res.Backpressured != 0 {
			t.Fatalf("batch at %d refused: %+v", lo, res)
		}
	}
}

func TestIngestSnapshotIncludesEverything(t *testing.T) {
	e := newTestEngine(t, Config{})
	recs := genRecords(3000)
	mustIngest(t, e, recs)
	g := e.Snapshot()
	if g.Records != len(recs) {
		t.Fatalf("generation has %d records, want %d", g.Records, len(recs))
	}
	if g.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", g.Epoch)
	}
}

// TestGenerationCanonical ingests the same record set in two different
// arrival orders and expects byte-identical query answers: the
// generation depends on the record set, not on how ingestion
// interleaved.
func TestGenerationCanonical(t *testing.T) {
	recs := genRecords(2500)
	shareBytes := func(reverse bool) []byte {
		e := newTestEngine(t, Config{})
		in := make([]telemetry.ViewRecord, len(recs))
		copy(in, recs)
		if reverse {
			for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
				in[i], in[j] = in[j], in[i]
			}
		}
		mustIngest(t, e, in)
		g := e.Snapshot()
		var buf bytes.Buffer
		for _, dim := range []string{"protocol", "platform", "cdn"} {
			resp, err := ShareOver(g.Dataset, dim, "viewhours")
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&buf, resp); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteJSON(&buf, TopPublishersOver(g.Dataset, 10)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(shareBytes(false), shareBytes(true)) {
		t.Fatal("answers differ across arrival orders")
	}
}

// TestOfflineOnlineEquivalence is the end-to-end equivalence contract:
// for the same record set, the published generation's query answers
// are byte-identical to an offline dataset built straight from the
// records — the same comparison the CI smoke stage runs against
// vmpstudy.
func TestOfflineOnlineEquivalence(t *testing.T) {
	recs := genRecords(4000)

	offline := make([]telemetry.ViewRecord, len(recs))
	copy(offline, recs)
	telemetry.CanonicalSort(offline)
	ods := telemetry.NewDataset(offline)

	e := newTestEngine(t, Config{})
	mustIngest(t, e, recs)
	g := e.Snapshot()

	for _, dim := range []string{"protocol", "platform", "cdn"} {
		for _, by := range []string{"viewhours", "views"} {
			var off, on bytes.Buffer
			offResp, err := ShareOver(ods, dim, by)
			if err != nil {
				t.Fatal(err)
			}
			onResp, err := ShareOver(g.Dataset, dim, by)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&off, offResp); err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&on, onResp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(off.Bytes(), on.Bytes()) {
				t.Fatalf("share(%s,%s) differs\noffline: %s\nonline:  %s", dim, by, off.String(), on.String())
			}
		}
	}
	var off, on bytes.Buffer
	if err := WriteJSON(&off, TopPublishersOver(ods, 15)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&on, TopPublishersOver(g.Dataset, 15)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), on.Bytes()) {
		t.Fatalf("top-publishers differs\noffline: %s\nonline:  %s", off.String(), on.String())
	}
	off.Reset()
	on.Reset()
	if err := WriteJSON(&off, WindowOver(ods, simclock.DayTime(0), 25)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&on, WindowOver(g.Dataset, simclock.DayTime(0), 25)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), on.Bytes()) {
		t.Fatalf("window differs\noffline: %s\nonline:  %s", off.String(), on.String())
	}
}

// TestSnapshotConsistency holds a published generation across later
// ingests and epochs and expects its answers to stay byte-identical:
// publication is immutable.
func TestSnapshotConsistency(t *testing.T) {
	e := newTestEngine(t, Config{})
	mustIngest(t, e, genRecords(2000))
	g1 := e.Snapshot()

	query := func(g *Generation) []byte {
		var buf bytes.Buffer
		resp, err := ShareOver(g.Dataset, "cdn", "viewhours")
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&buf, resp); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&buf, TopPublishersOver(g.Dataset, 5)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := query(g1)

	more := genRecords(3000)[2000:] // a disjoint tail of the generator
	mustIngest(t, e, more)
	g2 := e.Snapshot()
	if g2.Epoch != g1.Epoch+1 {
		t.Fatalf("epoch = %d after %d", g2.Epoch, g1.Epoch)
	}
	if g2.Records != 3000 {
		t.Fatalf("new generation has %d records, want 3000", g2.Records)
	}
	if g1.Records != 2000 || g1.Dataset.Len() != 2000 {
		t.Fatalf("old generation mutated: %d records", g1.Dataset.Len())
	}
	if !bytes.Equal(before, query(g1)) {
		t.Fatal("retained generation's answers changed after a later epoch")
	}
}

// TestBackpressureIsABoundOnUncutRecords fills a depth-1 engine to its
// ceiling — 16 384 records not yet cut into a generation — and expects
// the next batch to be rejected whole, counted, with the retry-after
// hint, leaving the ingest counter, the WAL and the next generation
// untouched; a query still answers, because the append path and the
// query path share no lock; and a cut, and nothing else, makes room.
func TestBackpressureIsABoundOnUncutRecords(t *testing.T) {
	wlog := openTestWAL(t, t.TempDir())
	e := newTestEngine(t, Config{QueueDepth: 1, RetryAfter: 250 * time.Millisecond, WAL: wlog})
	counter := func(name string) int64 { return e.Metrics().Counter(name).Load() }

	recs := genRecords(recordsPerBatch + 900)
	// 500 short of the ceiling, then a batch that crosses it: the check
	// precedes the append, so that one gets in whole.
	mustIngest(t, e, recs[:recordsPerBatch-500])
	if res, err := e.Ingest(recs[recordsPerBatch-500 : recordsPerBatch+400]); err != nil || res.Accepted != 900 {
		t.Fatalf("batch crossing the ceiling: %+v, %v", res, err)
	}
	admitted := int64(recordsPerBatch + 400)
	seq := wlog.Bounds()[0]
	for try := int64(1); try <= 2; try++ { // a retry without a cut fares no better
		res, err := e.Ingest(recs[recordsPerBatch+400:])
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != 0 || res.Backpressured != 500 || res.RetryAfter != 250*time.Millisecond {
			t.Fatalf("batch at the ceiling not rejected whole with the hint: %+v", res)
		}
		if got := counter("live_ingest_backpressured_total"); got != 500*try {
			t.Fatalf("backpressured counter = %d after %d refusals, want %d", got, try, 500*try)
		}
	}
	if got := counter("live_ingest_records_total"); got != admitted {
		t.Fatalf("ingested counter = %d, want %d: a refused batch was counted", got, admitted)
	}
	if got := wlog.Bounds()[0]; got != seq {
		t.Fatalf("WAL sequence moved %d → %d on a refused batch", seq, got)
	}
	// Queries must not block on, or be refused by, a full backlog.
	if _, err := ShareOver(e.Generation().Dataset, "protocol", ""); err != nil {
		t.Fatal(err)
	}

	if g := e.Snapshot(); int64(g.Records) != admitted {
		t.Fatalf("generation has %d records, want %d (500 rejected)", g.Records, admitted)
	}
	if res, err := e.Ingest(recs[recordsPerBatch+400:]); err != nil || res.Accepted != 500 {
		t.Fatalf("retry after the cut: %+v, %v", res, err)
	}
	if g := e.Snapshot(); g.Records != len(recs) {
		t.Fatalf("generation has %d records, want %d", g.Records, len(recs))
	}
}

// TestNewEngineStartsNoGoroutine: the engine is a data structure. What
// runs concurrently with it — Run's ticker, HTTP handlers — is started
// by its owner.
func TestNewEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart)})
	defer e.Close()
	mustIngest(t, e, genRecords(10))
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before NewEngine, %d after", before, after)
	}
}

// TestIngestSnapshotCloseConserveRecords hammers Ingest, Snapshot and
// Close from concurrent goroutines (the workload -race vets) against a
// ceiling low enough to refuse: every accepted record, and no refused
// one, is in the final generation.
func TestIngestSnapshotCloseConserveRecords(t *testing.T) {
	e := NewEngine(Config{QueueDepth: 1, Clock: simclock.NewManual(simclock.StudyStart)})
	var accepted, refused atomic.Int64
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() { // offers until Close refuses it
			defer workers.Done()
			recs := genRecords(300)
			for {
				res, err := e.Ingest(recs)
				if err != nil {
					if err != ErrClosed {
						t.Error(err)
					}
					return
				}
				accepted.Add(int64(res.Accepted))
				refused.Add(int64(res.Backpressured))
			}
		}()
	}
	stop := make(chan struct{})
	workers.Add(1)
	go func() { // cuts until told to stop, across the Close
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Snapshot()
			}
		}
	}()
	for accepted.Load() < 3*recordsPerBatch {
		runtime.Gosched()
	}
	g := e.Close()
	close(stop)
	workers.Wait()
	if int64(g.Records) != accepted.Load() || e.Generation() != g {
		t.Fatalf("final generation has %d records (published: %d), %d were accepted", g.Records, e.Generation().Records, accepted.Load())
	}
	if got := e.Metrics().Counter("live_ingest_backpressured_total").Load(); got != refused.Load() {
		t.Fatalf("backpressured counter = %d, callers saw %d", got, refused.Load())
	}
	t.Logf("accepted %d, refused %d", accepted.Load(), refused.Load())
}

// TestIngestAllocs holds admission to its budget: one copy of the
// batch, plus whatever the pending list amortizes. The partitioned
// engine this one replaced spent 83 allocations here.
func TestIngestAllocs(t *testing.T) {
	e := newTestEngine(t, Config{QueueDepth: 1 << 10})
	batch := genRecords(500)
	got := testing.AllocsPerRun(200, func() {
		if res, err := e.Ingest(batch); err != nil || res.Accepted != len(batch) {
			t.Fatalf("ingest: %+v, %v", res, err)
		}
	})
	if got > 8 {
		t.Fatalf("Ingest of 500 records allocates %.0f times, want <= 8", got)
	}
}

func TestIngestAfterClose(t *testing.T) {
	e := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart)})
	mustIngest(t, e, genRecords(100))
	g := e.Close()
	if g.Records != 100 {
		t.Fatalf("final generation has %d records, want 100", g.Records)
	}
	if _, err := e.Ingest(genRecords(10)); err != ErrClosed {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	// Idempotent close and post-close snapshot are safe no-ops.
	if g2 := e.Close(); g2.Records != 100 {
		t.Fatalf("second close: %d records", g2.Records)
	}
	if g3 := e.Snapshot(); g3.Records != 100 {
		t.Fatalf("post-close snapshot: %d records", g3.Records)
	}
}

// TestRunCadence: Run cuts on the configured cadence until its context
// is done, and then returns — its caller's goroutine is not leaked.
func TestRunCadence(t *testing.T) {
	e := newTestEngine(t, Config{EpochEvery: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		e.Run(ctx)
	}()
	mustIngest(t, e, genRecords(200))
	for i := 0; ; i++ {
		g := e.Generation()
		if g.Epoch >= 2 && g.Records == 200 {
			break
		}
		if i > 5000 { // ~5s of millisecond sleeps
			t.Fatalf("cadence never published: epoch %d records %d", g.Epoch, g.Records)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its context was cancelled")
	}
}
