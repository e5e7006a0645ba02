package telemetry

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mergeDelta is one epoch's worth of new records for the chain below:
// interleaved with everything before it, an unknown device among them
// (so the platform and model columns must trim their over-estimate),
// and a new publisher and CDN every round (so name tables are cloned).
func mergeDelta(round, n int) []ViewRecord {
	delta := make([]ViewRecord, n)
	for i := range delta {
		r := rec(fmt.Sprintf("p%d", i%5), i%40, float64(60+i))
		r.VideoID = fmt.Sprintf("v-%d-%d", round, i)
		r.Device = []string{"Roku", "iPhone", "Toaster"}[i%3]
		r.CDNs = [][]string{{"A"}, {"A", "B"}, nil}[i%3]
		delta[i] = r
	}
	delta[0].Publisher = fmt.Sprintf("late-%d", round)
	delta[0].CDNs = []string{fmt.Sprintf("cdn-%d", round)}
	CanonicalSort(delta)
	return delta
}

// pointers returns a pointer to each of recs, in order: a delta as
// Gather returns one, for Merge.
func pointers(recs []ViewRecord) []*ViewRecord {
	out := make([]*ViewRecord, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	return out
}

// requireExactColumns fails unless every per-record column, and the
// row pointers, fill their backing array: a cut must not carry
// append slack from one generation into the next, where it would
// compound.
func requireExactColumns(t *testing.T, d *Dataset) {
	t.Helper()
	exact := func(name string, length, capacity int) {
		t.Helper()
		if length != capacity {
			t.Errorf("%s: len %d, cap %d", name, length, capacity)
		}
	}
	exact("ref", len(d.ref), cap(d.ref))
	exact("views", len(d.views), cap(d.views))
	exact("viewHours", len(d.viewHours), cap(d.viewHours))
	exact("pubIDs", len(d.pubIDs), cap(d.pubIDs))
	for i, col := range []*DimColumn{d.protocol, d.platform, d.cdn, d.model} {
		name := []string{"protocol", "platform", "cdn", "model"}[i]
		exact(name+".offs", len(col.offs), cap(col.offs))
		exact(name+".ids", len(col.ids), cap(col.ids))
		if len(col.offs) != d.Len()+1 {
			t.Errorf("%s.offs: %d entries for %d records", name, len(col.offs), d.Len())
		}
	}
}

// TestMergeDoesNotRetainPredecessor pins the cut's memory contract: a
// merged Dataset holds no pointer into the columns of the one it was
// merged from, so once the engine publishes generation N, generation
// N−1's columns are garbage. A chain that kept its predecessors
// reachable — publishing &builder.column, or keeping the base on the
// result — would hold every generation ever cut, and no finalizer below
// would run. The rows are another matter: generations share them on
// purpose (every row array a cut published stays in use), so no row
// is watched.
func TestMergeDoesNotRetainPredecessor(t *testing.T) {
	const merges = 50
	var collected atomic.Int64
	watch := func(d *Dataset) int64 {
		runtime.SetFinalizer(d, func(*Dataset) { collected.Add(1) })
		runtime.SetFinalizer(d.cdn, func(*DimColumn) { collected.Add(1) })
		runtime.SetFinalizer(&d.views[0], func(*float64) { collected.Add(1) })
		runtime.SetFinalizer(&d.pubIDs[0], func(*int32) { collected.Add(1) })
		runtime.SetFinalizer(&d.cdn.ids[0], func(*int32) { collected.Add(1) })
		runtime.SetFinalizer(&d.protocol.offs[0], func(*int32) { collected.Add(1) })
		runtime.SetFinalizer(&d.ref[0], func(**ViewRecord) { collected.Add(1) })
		return 7
	}
	cur := NewDataset(mergeDelta(0, 300))
	requireExactColumns(t, cur)
	watched := int64(0)
	for round := 1; round <= merges; round++ {
		watched += watch(cur)
		cur = cur.Merge(pointers(mergeDelta(round, 300)))
		requireExactColumns(t, cur)
	}
	if cur.Len() != 300*(merges+1) {
		t.Fatalf("chain holds %d records, want %d", cur.Len(), 300*(merges+1))
	}
	// Finalizers run on their own goroutine after the collection that
	// found the object unreachable.
	for i := 0; i < 200 && collected.Load() < watched; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != watched {
		t.Fatalf("%d of %d retired columns were collected while generation %d is live", got, watched, merges)
	}
	runtime.KeepAlive(cur)
}

// TestMergeSharesUntouchedNameTables: a delta that brings no new name
// must not pay for cloning the tables, and one that does must not
// disturb the predecessor's.
func TestMergeSharesUntouchedNameTables(t *testing.T) {
	base := NewDataset(mergeDelta(0, 30))
	again := mergeDelta(0, 30)
	same := base.Merge(pointers(again))
	if &same.pubNames[0] != &base.pubNames[0] || &same.cdn.names[0] != &base.cdn.names[0] {
		t.Error("a merge with no new names copied the name tables")
	}
	pubs, cdns := base.NumPublishers(), base.CDNCol().Cardinality()
	grown := base.Merge(pointers(mergeDelta(1, 30)))
	if grown.NumPublishers() != pubs+1 || grown.CDNCol().Cardinality() != cdns+1 {
		t.Fatalf("merge with a new publisher and CDN: %d publishers, %d CDNs", grown.NumPublishers(), grown.CDNCol().Cardinality())
	}
	if base.NumPublishers() != pubs || base.CDNCol().Cardinality() != cdns {
		t.Error("merge grew its predecessor's name tables")
	}
	if _, ok := base.PublisherIDOf("late-1"); ok {
		t.Error("merge wrote a new publisher into its predecessor's index")
	}
	for id := int32(0); id < int32(pubs); id++ {
		if grown.PublisherName(id) != base.PublisherName(id) {
			t.Fatalf("publisher ID %d changed meaning across a merge", id)
		}
	}
}
