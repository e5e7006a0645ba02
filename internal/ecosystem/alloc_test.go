package ecosystem

import (
	"runtime"
	"testing"
	"unsafe"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// TestGenerateSnapshotAllocsPerRecord bounds what generation allocates
// per view record: a distinct video ID or manifest URL once, at its
// first draw, and a two-CDN list; not the RNG children, user agents
// and one-CDN lists, nor the name and weight lists, ladders and labels
// that a whole publisher-snapshot shares. One snapshot draws most of
// its IDs and URLs for the first time (1.75 per record measured); a
// whole store repeats them. It guards the bench metric
// core.generate_ms, which allocation, not arithmetic, dominates.
func TestGenerateSnapshotAllocsPerRecord(t *testing.T) {
	e := New(Config{SnapshotStride: len(simclock.DefaultSchedule())})
	snap := e.Schedule.Latest()
	records := len(e.GenerateSnapshot(snap))
	allocs := testing.AllocsPerRun(3, func() { e.GenerateSnapshot(snap) })
	perRecord := allocs / float64(records)
	t.Logf("%.0f allocations for %d records: %.2f per record", allocs, records, perRecord)
	if perRecord > 2 {
		t.Fatalf("GenerateSnapshot allocates %.2f times per record, want <= 2", perRecord)
	}
}

// TestGenerateStoreAllocatesOneRowArray bounds what a whole store
// allocates per record it holds, in rows of telemetry.ViewRecord: the
// one array every record is sampled straight into is one row, and the
// sort keys, strings and CDN lists about a third of another. A second
// array — per-slot samples gathered into the store, or a sorted copy —
// is a second row, and about 2.4 rows were measured with one.
func TestGenerateStoreAllocatesOneRowArray(t *testing.T) {
	e := New(Config{SnapshotStride: 12})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := e.GenerateStore().Len()
	runtime.ReadMemStats(&after)
	row := float64(unsafe.Sizeof(telemetry.ViewRecord{}))
	rows := float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / row
	t.Logf("%d records, %.0f B allocated per record: %.2f rows of %.0f B", n, rows*row, rows, row)
	if rows > 1.6 {
		t.Fatalf("GenerateStore allocates %.2f rows per record, want <= 1.6: one row array", rows)
	}
}
