package live

import (
	"fmt"
	"runtime"
	"testing"

	"vmp/internal/ecosystem"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// BenchmarkEpochCut is the in-package microscope for bench/'s
// live.cut_ms_per_krec, swept over the generation's size (and, in its
// cold case below, for the cut from empty): one op is one
// Engine.Snapshot folding a fixed 2 500-record delta into a published
// generation of 50 k, 200 k or 800 k records (no WAL: the checkpoint
// is wal.commit_ms's). A cut whose comparing,
// hashing and interning are proportional to the delta, and which shares
// the published rows, leaves only the copy of the columns and row
// pointers to grow with the generation, so ns/op divided by the sizes'
// ratio is the figure to watch. The engine is rebuilt, outside the
// timer, whenever cuts have grown the generation a tenth past its
// nominal size.
func BenchmarkEpochCut(b *testing.B) {
	const delta = 2500
	ingest := func(e *Engine, recs []telemetry.ViewRecord) {
		for lo := 0; lo < len(recs); lo += delta {
			res, err := e.Ingest(recs[lo:min(lo+delta, len(recs))])
			if err != nil || res.Backpressured != 0 {
				b.Fatalf("ingest at %d: %+v, %v", lo, res, err)
			}
		}
	}
	for _, size := range []int{50_000, 200_000, 800_000} {
		b.Run(fmt.Sprintf("gen=%dk", size/1000), func(b *testing.B) {
			recs := genRecords(size + delta)
			var e *Engine
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if e != nil && e.Generation().Records > size+size/10 {
					e.Close()
					e = nil
				}
				if e == nil {
					e = NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart)})
					ingest(e, recs[:size])
					e.Snapshot()
				}
				ingest(e, recs[size:])
				b.StartTimer()
				e.Snapshot()
			}
			b.StopTimer()
			e.Close()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/gen-record")
		})
	}
	// cold is the microscope for ingest_jsonl's refresh_p50_ms and
	// live.cut_ms: the benchmark's dataset (seed 1809, stride 12, about
	// 109 k records) pending in 200-record batches, as its two
	// connections post them, cut into an empty generation — every first
	// boot, -load and crash recovery makes this cut. The engine is fresh
	// and filled outside the timer, and the heap collected, every op.
	b.Run("cold", func(b *testing.B) {
		const batch = 200
		recs := ecosystem.New(ecosystem.Config{Seed: 1809, SnapshotStride: 12}).GenerateStore().All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart)})
			for lo := 0; lo < len(recs); lo += batch {
				if res, err := e.Ingest(recs[lo:min(lo+batch, len(recs))]); err != nil || res.Backpressured != 0 {
					b.Fatalf("ingest at %d: %+v, %v", lo, res, err)
				}
			}
			runtime.GC()
			b.StartTimer()
			e.Snapshot()
			b.StopTimer()
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
	})
}
