package ecosystem

import (
	"reflect"
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
	for _, parallelism := range []int{1, 4} {
		e := New(Config{SnapshotStride: 12, Parallelism: parallelism})
		var want []telemetry.ViewRecord
		for _, snap := range e.Schedule {
			want = append(want, e.GenerateSnapshot(snap)...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Timestamp.Before(want[j].Timestamp) })
		got := e.GenerateStore().All()
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d records, want %d", parallelism, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallelism %d: record %d is\n%+v\na stable sort by timestamp puts there\n%+v", parallelism, i, got[i], want[i])
			}
		}
	}
}

// TestParallelGenerationMatchesSerial verifies the determinism claim:
// parallel and serial generation produce the same record multiset.
func TestParallelGenerationMatchesSerial(t *testing.T) {
	serial := New(Config{SnapshotStride: 15, Parallelism: 1}).GenerateStore()
	parallel := New(Config{SnapshotStride: 15, Parallelism: 8}).GenerateStore()
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
