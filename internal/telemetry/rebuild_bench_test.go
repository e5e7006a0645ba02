package telemetry_test

import (
	"runtime"
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

// TestFreezeMatchesSerialBuilderOnEcosystem holds the range freeze to
// the serial builder on the generator's records at one, two and four
// workers: the whole store from empty, and every third record merged
// into a generation of the other two, so the delta lands everywhere.
func TestFreezeMatchesSerialBuilderOnEcosystem(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := ecosystem.New(ecosystem.Config{Seed: 1809, SnapshotStride: 24}).GenerateStore().All()
	var kept, added []telemetry.ViewRecord
	for i := range all {
		if i%3 == 0 {
			added = append(added, all[i])
		} else {
			kept = append(kept, all[i])
		}
	}
	exact := func(recs []telemetry.ViewRecord) []telemetry.ViewRecord {
		return append(make([]telemetry.ViewRecord, 0, len(recs)), recs...)
	}
	wantAll := telemetry.SerialNewDataset(exact(all))
	base := telemetry.SerialNewDataset(exact(kept))
	wantMerged := telemetry.SerialMerge(base, exact(added))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if diff := telemetry.DatasetDiff(telemetry.NewDataset(exact(all)), wantAll); diff != "" {
			t.Fatalf("GOMAXPROCS %d, NewDataset of %d records: %s", procs, len(all), diff)
		}
		if diff := telemetry.DatasetDiff(base.Merge(telemetry.Pointers(exact(added))), wantMerged); diff != "" {
			t.Fatalf("GOMAXPROCS %d, %d records merged into %d: %s", procs, len(added), len(kept), diff)
		}
	}
}

// BenchmarkRebuild times the stages of a cut from empty — every first
// cut, boot preload, crash recovery and offline Study.Dataset() — that
// depend on the record count alone: CanonicalSort in place (bench's
// telemetry.sort_ms probe), Gather of the two connections' batches into
// one sorted slice of row pointers (the cut's epoch.sort), then the
// freeze, Merge onto the empty
// dataset (core.freeze_ms and telemetry.freeze_ms). `make bench-cut`
// runs it at -cpu 1,2; DESIGN.md §8 quotes its ns/record.
func BenchmarkRebuild(b *testing.B) {
	arrived := arrivalOrder(b)
	recs := make([]telemetry.ViewRecord, len(arrived))
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
	}
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(recs, arrived)
			b.StartTimer()
			telemetry.CanonicalSort(recs)
		}
		perRecord(b)
	})
	b.Run("gather", func(b *testing.B) {
		var batches [][]telemetry.ViewRecord
		for lo := 0; lo < len(arrived); lo += 200 {
			batches = append(batches, arrived[lo:min(lo+200, len(arrived))])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(telemetry.Gather(batches)) != len(arrived) {
				b.Fatal("short gather")
			}
		}
		perRecord(b)
	})
	b.Run("freeze", func(b *testing.B) {
		copy(recs, arrived)
		telemetry.CanonicalSort(recs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if telemetry.NewDataset(recs).Len() != len(recs) {
				b.Fatal("short dataset")
			}
		}
		perRecord(b)
	})
}
