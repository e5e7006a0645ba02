package live

import (
	"bytes"
	"context"
	"fmt"
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
	// Send in small batches, retrying on backpressure, so tests with
	// small queues still land every record.
	for lo := 0; lo < len(recs); lo += 500 {
		hi := lo + 500
		if hi > len(recs) {
			hi = len(recs)
		}
		for {
			res, err := e.Ingest(recs[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if res.Backpressured == 0 {
				break
			}
			time.Sleep(time.Millisecond)
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

// TestBackpressureRejectsWholeBatch fills a depth-1 queue while the consumer is blocked and expects the third batch to be
// rejected whole with a retry-after hint — and a concurrent query to
// proceed, because the append path and the query path share no lock.
func TestBackpressureRejectsWholeBatch(t *testing.T) {
	e := newTestEngine(t, Config{QueueDepth: 1, RetryAfter: 250 * time.Millisecond})

	e.pendingMu.Lock() // block the consumer's append
	released := false
	defer func() {
		if !released {
			e.pendingMu.Unlock()
		}
	}()

	recs := genRecords(30)
	if res, err := e.Ingest(recs[0:10]); err != nil || res.Accepted != 10 {
		t.Fatalf("first batch: %+v, %v", res, err)
	}
	// Wait for the consumer to pull batch 1 off the queue and block on
	// the held pending mutex.
	for i := 0; len(e.ch) != 0; i++ {
		if i > 2000 { // ~2s of millisecond sleeps
			t.Fatal("consumer never pulled the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	if res, err := e.Ingest(recs[10:20]); err != nil || res.Accepted != 10 {
		t.Fatalf("second batch: %+v, %v", res, err)
	}
	res, err := e.Ingest(recs[20:30])
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Backpressured != 10 {
		t.Fatalf("third batch not rejected whole: %+v", res)
	}
	if res.RetryAfter != 250*time.Millisecond {
		t.Fatalf("retry-after = %v", res.RetryAfter)
	}
	if got := e.Metrics().Counter("live_ingest_backpressured_total").Load(); got != 10 {
		t.Fatalf("backpressured counter = %d, want 10", got)
	}
	// Queries must not block on the stalled append path.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := ShareOver(e.Generation().Dataset, "protocol", ""); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("query blocked while ingest was stalled")
	}

	released = true
	e.pendingMu.Unlock()
	// After releasing, everything admitted must drain into the epoch.
	g := e.Snapshot()
	if g.Records != 20 {
		t.Fatalf("generation has %d records, want 20 (10 rejected)", g.Records)
	}
}

// TestFirstCutAdoptsExactCapacity pins the sizing rule behind
// heap_bytes_per_record: Dataset.Merge adopts the first delta's array
// as the generation's record array, spare capacity included, so the
// cut must build that delta at exactly the drained length.
func TestFirstCutAdoptsExactCapacity(t *testing.T) {
	e := newTestEngine(t, Config{})
	recs := genRecords(1300)
	for _, n := range []int{500, 1, 299, 500} { // uneven batches
		mustIngest(t, e, recs[:n])
		recs = recs[n:]
	}
	all := e.Snapshot().Dataset.All()
	if len(all) != 1300 || cap(all) != len(all) {
		t.Fatalf("first generation: len %d cap %d, want both 1300", len(all), cap(all))
	}
}

// TestIngestAllocs holds admission to its budget: one copy of the
// batch, plus whatever the queue and pending list amortize. The
// partitioned engine this one replaced spent 83 allocations here.
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

func TestRunCadence(t *testing.T) {
	e := newTestEngine(t, Config{EpochEvery: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
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
}
