package telemetry_test

import (
	"testing"

	"vmp/internal/ecosystem"
	"vmp/internal/telemetry"
)

// arrivalOrder returns the benchmark dataset (seed 1809, stride 12:
// bench/'s ingest workloads) as a full rebuild meets it: two
// connections each posting every other 200-record batch of the
// canonical sequence, so the cut's input is two interleaved sorted
// runs.
func arrivalOrder(tb testing.TB) []telemetry.ViewRecord {
	tb.Helper()
	sorted := ecosystem.New(ecosystem.Config{Seed: 1809, SnapshotStride: 12}).GenerateStore().All()
	const batch = 200
	out := make([]telemetry.ViewRecord, 0, len(sorted))
	for conn := 0; conn < 2; conn++ {
		for lo := conn * batch; lo < len(sorted); lo += 2 * batch {
			out = append(out, sorted[lo:min(lo+batch, len(sorted))]...)
		}
	}
	return out
}

// BenchmarkRebuild times the two stages of a cut from empty — every
// first cut, boot preload, crash recovery and offline Study.Dataset()
// — that depend on the record count alone: CanonicalSort, then the
// freeze (Merge onto the empty dataset). DESIGN.md §8 quotes its
// ns/record.
func BenchmarkRebuild(b *testing.B) {
	arrived := arrivalOrder(b)
	recs := make([]telemetry.ViewRecord, len(arrived))
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(recs, arrived)
			b.StartTimer()
			telemetry.CanonicalSort(recs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
	})
	b.Run("freeze", func(b *testing.B) {
		telemetry.CanonicalSort(recs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if telemetry.NewDataset(recs).Len() != len(recs) {
				b.Fatal("short dataset")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
	})
}
