package ecosystem

import (
	"testing"

	"vmp/internal/simclock"
)

// TestGenerateSnapshotAllocsPerRecord bounds what generation allocates
// per view record: only what differs per record (its CDN list, video
// ID, manifest URL, a browser's user agent, the view's RNG child), not
// the name and weight lists, ladders and labels that a whole
// publisher-snapshot shares. It guards the bench metric
// core.generate_ms, which allocation, not arithmetic, dominates.
func TestGenerateSnapshotAllocsPerRecord(t *testing.T) {
	e := New(Config{SnapshotStride: len(simclock.DefaultSchedule())})
	snap := e.Schedule.Latest()
	records := len(e.GenerateSnapshot(snap))
	allocs := testing.AllocsPerRun(3, func() { e.GenerateSnapshot(snap) })
	perRecord := allocs / float64(records)
	t.Logf("%.0f allocations for %d records: %.2f per record", allocs, records, perRecord)
	if perRecord > 10 {
		t.Fatalf("GenerateSnapshot allocates %.2f times per record, want <= 10", perRecord)
	}
}
