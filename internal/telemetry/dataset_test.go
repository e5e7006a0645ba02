package telemetry

import (
	"reflect"
	"testing"

	"vmp/internal/simclock"
)

// frozenStore builds a store from out-of-order records spanning two
// snapshot windows.
func frozenStore() (*Store, simclock.Schedule) {
	sched := simclock.MakeSchedule(14, 2)[:2]
	r1 := rec("p1", 15, 3600)
	r1.URL = "http://cdn-b/p/v2.mpd"
	r1.CDNs = []string{"B", "C"}
	r2 := rec("p2", 0, 1800)
	r2.Weight = 4
	r3 := rec("p1", 1, 7200)
	r3.Device = "iPhone"
	return NewStore([]ViewRecord{r1, r2, r3}), sched // newest first: the store must order them
}

func TestFreezeSortedAndColumns(t *testing.T) {
	s, _ := frozenStore()
	ds := NewDataset(s.All())
	if ds.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", ds.Len(), s.Len())
	}
	if &ds.All()[0] != &s.All()[0] {
		t.Fatal("the dataset copied the store's rows: a study must hold one row array")
	}
	for i := 1; i < ds.Len(); i++ {
		if ds.Record(i).Timestamp.Before(ds.Record(i - 1).Timestamp) {
			t.Fatalf("records not sorted at %d", i)
		}
	}
	for i := 0; i < ds.Len(); i++ {
		r := ds.Record(i)
		if got := ds.ViewsAt(i); got != r.Views() {
			t.Errorf("ViewsAt(%d) = %v, want %v", i, got, r.Views())
		}
		if got := ds.ViewHoursAt(i); got != r.ViewHours() {
			t.Errorf("ViewHoursAt(%d) = %v, want %v", i, got, r.ViewHours())
		}
		if got := ds.PublisherName(ds.PublisherID(i)); got != r.Publisher {
			t.Errorf("publisher round-trip at %d: %q != %q", i, got, r.Publisher)
		}
	}
	if ds.NumPublishers() != 2 {
		t.Errorf("NumPublishers = %d, want 2", ds.NumPublishers())
	}
	if _, ok := ds.PublisherIDOf("p2"); !ok {
		t.Error("PublisherIDOf(p2) missing")
	}
	if _, ok := ds.PublisherIDOf("nope"); ok {
		t.Error("PublisherIDOf invented a publisher")
	}
	// Protocol column: .m3u8 → HLS, .mpd → DASH.
	proto := ds.ProtocolCol()
	byName := map[string]int{}
	for i := 0; i < ds.Len(); i++ {
		for _, id := range proto.IDs(i) {
			byName[proto.Name(id)]++
		}
	}
	if byName["HLS"] != 2 || byName["DASH"] != 1 {
		t.Errorf("protocol counts = %v, want HLS:2 DASH:1", byName)
	}
	// CDN column keeps multi-CDN views.
	cdn := ds.CDNCol()
	last := cdn.IDs(ds.Len() - 1) // the day-15 record
	if len(last) != 2 {
		t.Errorf("multi-CDN record has %d CDN ids, want 2", len(last))
	}
}

func TestDatasetWindowMatchesStore(t *testing.T) {
	s, sched := frozenStore()
	ds := NewDataset(s.All())
	for _, snap := range sched {
		var want []ViewRecord
		for _, r := range s.All() {
			if !r.Timestamp.Before(snap.Start) && r.Timestamp.Before(snap.End()) {
				want = append(want, r)
			}
		}
		if got := ds.Window(snap); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("window %s: %d records, want the store's %d inside it", snap.Label(), len(got), len(want))
		}
	}
}

func TestDatasetWindowZeroAlloc(t *testing.T) {
	s, sched := frozenStore()
	ds := NewDataset(s.All())
	snap := sched[0]
	ds.Window(snap) // warm the memoized bounds
	allocs := testing.AllocsPerRun(100, func() {
		if ds.Window(snap) == nil {
			t.Fatal("empty window")
		}
		// The per-row accessors the scans are built from, and the two
		// measures the columns are filled with.
		if r := ds.Record(0); r.Views() != ds.ViewsAt(0) || r.ViewHours() != ds.ViewHoursAt(0) || ds.PublisherID(0) < 0 {
			t.Fatal("row 0's columns are not its record's measures")
		}
	})
	if allocs > 0 {
		t.Errorf("Dataset.Window and the row accessors allocate %.1f objects/op on the warm path, want 0", allocs)
	}
}
