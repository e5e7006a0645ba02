package ecosystem

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"vmp/internal/telemetry"
)

// TestCanonicalOrderIsStableTimestampOrder pins the fact that lets the
// store hold its records in CanonicalSort order without moving a digit
// of any figure: over the generator's output, schedule order then
// publisher order, the canonical order is the very sequence a stable
// sort by timestamp gives — the order the store kept before it shared
// its rows with the Dataset. Serial and parallel generation both.
func TestCanonicalOrderIsStableTimestampOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		e := New(Config{SnapshotStride: 12})
		var want []telemetry.ViewRecord
		for _, snap := range e.Schedule {
			want = append(want, e.GenerateSnapshot(snap)...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Timestamp.Before(want[j].Timestamp) })
		got := e.GenerateStore().All()
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d records, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS %d: record %d is\n%+v\na stable sort by timestamp puts there\n%+v", procs, i, got[i], want[i])
			}
		}
	}
}

// TestParallelGenerationMatchesSerial verifies the determinism claim:
// parallel and serial generation produce the same record multiset.
func TestParallelGenerationMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := New(Config{SnapshotStride: 15}).GenerateStore()
	runtime.GOMAXPROCS(8)
	parallel := New(Config{SnapshotStride: 15}).GenerateStore()
	a, b := serial.All(), parallel.All()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = a[i].Timestamp.String() + "|" + a[i].URL + "|" + a[i].Device
		kb[i] = b[i].Timestamp.String() + "|" + b[i].URL + "|" + b[i].Device
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("record %d differs:\n%s\n%s", i, ka[i], kb[i])
		}
	}
}

// TestStoreHasNoDroppedRows holds the store to the records the sampler
// kept: a view it drops leaves an unfilled row in the generation's
// array, and no such row — no publisher, the zero time — may reach the
// store. The store holds exactly what sampling each snapshot on its own
// keeps, and fewer rows than were reserved, or the test shows nothing.
func TestStoreHasNoDroppedRows(t *testing.T) {
	e := New(Config{SnapshotStride: 12})
	kept, reserved := 0, 0
	for _, snap := range e.Schedule {
		kept += len(e.GenerateSnapshot(snap))
		for _, p := range e.Publishers {
			reserved += sampleSize(p, snap)
		}
	}
	if kept >= reserved {
		t.Fatalf("the sampler dropped no view (%d kept of %d reserved): nothing to leave out", kept, reserved)
	}
	s := e.GenerateStore()
	for i, r := range s.All() {
		if r.Publisher == "" || r.Timestamp.IsZero() {
			t.Fatalf("record %d of %d is an unfilled row: %+v", i, s.Len(), r)
		}
	}
	if s.Len() != kept {
		t.Fatalf("store holds %d records, sampling each snapshot keeps %d (of %d reserved)", s.Len(), kept, reserved)
	}
}
