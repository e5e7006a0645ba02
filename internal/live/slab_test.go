package live

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"vmp/internal/obs"
	"vmp/internal/telemetry"
)

// pendingPieces returns the engine's pending list as it stands.
func pendingPieces(e *Engine) [][]telemetry.ViewRecord {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return append([][]telemetry.ViewRecord(nil), e.pending...)
}

// TestSlabsAreFullAndPageExact pins the slab rule behind
// heap_bytes_per_record: a slab is a whole number of allocator pages,
// and admission fills each one before it opens the next, across batch
// boundaries and across cuts, so no slab is left with room but the open
// one. A piece of the pending list reaches to its slab's end, so its
// capacity says where in its slab it starts.
func TestSlabsAreFullAndPageExact(t *testing.T) {
	const page = 8 << 10
	if size := unsafe.Sizeof(telemetry.ViewRecord{}) * slabRows; size%page != 0 {
		t.Fatalf("a slab is %d B: %d pages of %d B and %d B over", size, size/page, page, size%page)
	}
	e := newTestEngine(t, Config{})
	recs := genRecords(20_000)
	total := 0 // records admitted, so far, into slabs
	var last []telemetry.ViewRecord
	admit := func(sizes ...int) {
		t.Helper()
		for _, n := range sizes {
			mustIngest(t, e, recs[:n])
			recs = recs[n:]
		}
		for _, piece := range pendingPieces(e) {
			at := slabRows - cap(piece)
			if at != total%slabRows {
				t.Fatalf("after %d records, a piece starts at row %d of its slab (capacity %d from there), want row %d",
					total, at, cap(piece), total%slabRows)
			}
			if last != nil && at != 0 && &last[:len(last)+1][len(last)] != &piece[0] {
				t.Fatalf("after %d records, a piece starts at row %d of a slab other than the open one", total, at)
			}
			total += len(piece)
			last = piece
		}
	}
	admit(500, 1, 299, 500, 1023, 1, 1025, 2048, 3)
	e.Snapshot()
	admit(1, 1024, 700) // the cut left the open slab open
	if g := e.Snapshot(); g.Records != total {
		t.Fatalf("generation has %d records, the pieces held %d", g.Records, total)
	}
}

// TestCutPointsIntoAdmissionSlabs: a cut publishes no row copy. Every
// record of a generation, the first cut's and a later merge's, is the
// row admission copied the record into.
func TestCutPointsIntoAdmissionSlabs(t *testing.T) {
	e := newTestEngine(t, Config{})
	recs := genRecords(6000)
	admitted := make(map[*telemetry.ViewRecord]bool)
	for _, part := range [][]telemetry.ViewRecord{recs[:3500], recs[3500:]} {
		mustIngest(t, e, part)
		for _, piece := range pendingPieces(e) {
			for i := range piece {
				admitted[&piece[i]] = true
			}
		}
		g := e.Snapshot()
		for i := range g.Records {
			if !admitted[g.Dataset.Record(i)] {
				t.Fatalf("epoch %d: record %d of %d is not a row admission wrote: the cut copied it", g.Epoch, i, g.Records)
			}
		}
	}
}

// TestSnapshotCopiesNoRows: a cut of 50 k pending records allocates
// keys, pointers and columns, a few dozen bytes a record, and not the
// 328 a row copy would add. The bound is half the rows' bytes.
func TestSnapshotCopiesNoRows(t *testing.T) {
	const n = 50_000
	e := newTestEngine(t, Config{})
	mustIngest(t, e, genRecords(n))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := e.Snapshot()
	runtime.ReadMemStats(&after)
	if g.Records != n {
		t.Fatalf("generation has %d records, want %d", g.Records, n)
	}
	rows := uint64(n) * uint64(unsafe.Sizeof(telemetry.ViewRecord{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cut of %d records allocated %d B, %.1f B a record", n, got, float64(got)/n)
	if got > rows/2 {
		t.Fatalf("cut of %d records allocated %d B, want under %d (half of what their rows take)", n, got, rows/2)
	}
}

// flakyWAL refuses appends while fail is set and keeps nothing.
type flakyWAL struct{ fail bool }

func (w *flakyWAL) AppendBatch([][]telemetry.ViewRecord, obs.SpanID) error {
	if w.fail {
		return errors.New("disk full")
	}
	return nil
}
func (w *flakyWAL) Bounds() []uint64 { return make([]uint64, 1) }
func (w *flakyWAL) Commit(int64, []telemetry.ViewRecord, []uint64, obs.SpanID) error {
	return nil
}

// TestHeldGenerationSurvivesSlabReuse: a cut leaves the open slab open,
// and the next batches fill its tail while earlier generations point at
// its head. Each held generation is read on a goroutine of its own all
// along, so under -race a write to a published row is a reported race,
// and without it a changed record. Batch sizes straddle a slab (1,023,
// 1, 1,025, 2,048), and between them come batches the WAL fails and
// batches refused at the ceiling, neither of which may touch the slab.
func TestHeldGenerationSurvivesSlabReuse(t *testing.T) {
	w := &flakyWAL{}
	e := newTestEngine(t, Config{QueueDepth: 1, WAL: w})
	recs := genRecords(4 * recordsPerBatch)
	for i := range recs {
		recs[i].VideoID = fmt.Sprintf("v-%d", i)
	}
	next := func(n int) []telemetry.ViewRecord {
		batch := recs[:n]
		recs = recs[n:]
		return batch
	}
	slabHead := func() (*telemetry.ViewRecord, int) {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return unsafe.SliceData(e.slab), len(e.slab)
	}
	untouched := func(what string, try func()) {
		t.Helper()
		p, n := slabHead()
		try()
		if q, m := slabHead(); q != p || m != n {
			t.Fatalf("%s moved the open slab from %d rows to %d", what, n, m)
		}
	}

	var accepted []telemetry.ViewRecord
	stop := make(chan struct{})
	var readers sync.WaitGroup
	hold := func(g *Generation) {
		want := g.Dataset.All()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for i := range want {
					if telemetry.CompareRecords(g.Dataset.Record(i), &want[i]) != 0 {
						t.Errorf("epoch %d: record %d changed after it was published", g.Epoch, i)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	sizes := []int{1023, 1, 1025, 2048}
	for round := range 12 {
		batch := next(sizes[round%len(sizes)])
		if round%3 == 1 {
			w.fail = true
			untouched("a batch the WAL failed", func() {
				if _, err := e.Ingest(batch); err == nil {
					t.Fatal("ingest with a failing WAL succeeded")
				}
			})
			w.fail = false
		}
		if res, err := e.Ingest(batch); err != nil || res.Accepted != len(batch) {
			t.Fatalf("round %d: %+v, %v", round, res, err)
		}
		accepted = append(accepted, batch...)
		if round%4 == 2 { // fill to the ceiling, then be refused
			fill := next(recordsPerBatch - uncut(e))
			mustIngest(t, e, fill)
			accepted = append(accepted, fill...)
			untouched("a batch refused at the ceiling", func() {
				if res, err := e.Ingest(next(sizes[(round+1)%len(sizes)])); err != nil || res.Backpressured == 0 {
					t.Fatalf("round %d: batch at the ceiling: %+v, %v", round, res, err)
				}
			})
			hold(e.Snapshot())
		}
		if round%2 == 1 {
			hold(e.Snapshot())
		}
	}
	g := e.Snapshot()
	close(stop)
	readers.Wait()
	telemetry.CanonicalSort(accepted)
	if !reflect.DeepEqual(g.Dataset.All(), accepted) {
		t.Fatalf("final generation has %d records, not the %d accepted", g.Records, len(accepted))
	}
}

// uncut returns how many admitted records wait for the next cut.
func uncut(e *Engine) int {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.uncut
}
