package ecosystem

import (
	"testing"

	"vmp/internal/simclock"
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
