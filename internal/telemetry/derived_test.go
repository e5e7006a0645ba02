package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"

	"vmp/internal/simclock"
)

type testKey int

func derivedDataset() *Dataset {
	return NewDataset([]ViewRecord{{Timestamp: simclock.DayTime(0), Publisher: "p", ViewSec: 60, Weight: 1}})
}

// Concurrent first askers of one key run compute once between them and
// all leave with the same value.
func TestDerivedComputesOncePerKey(t *testing.T) {
	ds := derivedDataset()
	const callers = 16
	var computes atomic.Int32
	var misses atomic.Int32
	got := make([]any, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, how := ds.Derived(testKey(1), func() any {
				computes.Add(1)
				return new(int)
			})
			if how == DerivedMiss {
				misses.Add(1)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if computes.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("%d computes, %d misses for %d concurrent first calls, want 1 and 1", computes.Load(), misses.Load(), callers)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
	if v, how := ds.Derived(testKey(1), func() any { t.Error("recomputed a filled slot"); return nil }); how != DerivedHit || v != got[0] {
		t.Fatalf("later call: how=%v, same value=%v", how, v == got[0])
	}
	if _, how := ds.Derived(testKey(2), func() any { return 2 }); how != DerivedMiss {
		t.Fatalf("a new key reported how=%v, want a miss", how)
	}
}

// The capped part of the table takes maxClientDerived keys and no
// more; keys past the cap are computed every time and never stored,
// and neither displace nor refuse Derived's keys.
func TestDerivedCappedIsBounded(t *testing.T) {
	ds := derivedDataset()
	for pass, want := range []Derivation{DerivedMiss, DerivedHit} {
		for k := 0; k < maxClientDerived; k++ {
			v, how := ds.DerivedCapped(testKey(k), func() any { return k })
			if how != want || v != k {
				t.Fatalf("pass %d key %d: value %v how %v, want %d how %v", pass, k, v, how, k, want)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for k := maxClientDerived; k < 3*maxClientDerived; k++ {
			v, how := ds.DerivedCapped(testKey(k), func() any { return k })
			if how != DerivedUncached || v != k {
				t.Fatalf("pass %d overflow key %d: value %v how %v, want %d uncached", pass, k, v, how, k)
			}
		}
	}
	if n := len(ds.derived.slots); n != maxClientDerived {
		t.Fatalf("table holds %d slots after overflow, want the cap %d", n, maxClientDerived)
	}
	if _, how := ds.DerivedCapped(testKey(0), func() any { return nil }); how != DerivedHit {
		t.Fatalf("a stored key after overflow: how=%v, want a hit", how)
	}
	type closedKey string
	if _, how := ds.Derived(closedKey("a"), func() any { return "a" }); how != DerivedMiss {
		t.Fatalf("Derived on a full capped table: how=%v, want a miss that takes a slot", how)
	}
	if _, how := ds.Derived(closedKey("a"), func() any { return "a" }); how != DerivedHit {
		t.Fatalf("Derived on a full capped table, second call: how=%v, want a hit", how)
	}
	if n := len(ds.derived.slots); n != maxClientDerived+1 {
		t.Fatalf("table holds %d slots, want %d", n, maxClientDerived+1)
	}
}

// A cut starts with an empty table; republishing the same dataset
// (nothing to merge) keeps it.
func TestDerivedFollowsTheDataset(t *testing.T) {
	ds := derivedDataset()
	ds.Derived(testKey(1), func() any { return 1 })
	if same := ds.Merge(nil); same != ds {
		t.Fatal("Merge(nil) returned a different dataset")
	}
	if _, how := ds.Merge(nil).Derived(testKey(1), func() any { return 1 }); how != DerivedHit {
		t.Fatalf("after Merge(nil): how=%v, want a hit", how)
	}
	next := ds.Merge([]*ViewRecord{{Timestamp: simclock.DayTime(1), Publisher: "q", ViewSec: 60, Weight: 1}})
	if v, how := next.Derived(testKey(1), func() any { return 2 }); how != DerivedMiss || v != 2 {
		t.Fatalf("after a merge: value %v how=%v, want a fresh 2", v, how)
	}
	if v, _ := ds.Derived(testKey(1), func() any { return 3 }); v != 1 {
		t.Fatalf("the predecessor's value changed to %v", v)
	}
}

// DeviceCol rides the same table: one column per platform name, built
// once.
func TestDeviceColBuiltOnce(t *testing.T) {
	ds := NewDataset([]ViewRecord{
		{Timestamp: simclock.DayTime(0), Publisher: "p", Device: "Roku", ViewSec: 60, Weight: 1},
		{Timestamp: simclock.DayTime(1), Publisher: "p", Device: "iPhone", ViewSec: 60, Weight: 1},
	})
	a, b := ds.DeviceCol("SetTop"), ds.DeviceCol("SetTop")
	if a != b {
		t.Fatal("DeviceCol built the same platform's column twice")
	}
	if ds.DeviceCol("Mobile") == a {
		t.Fatal("two platforms share a column")
	}
	if got := len(a.IDs(0)) + len(a.IDs(1)); got != 1 {
		t.Fatalf("SetTop column holds %d values over a Roku and an iPhone, want 1", got)
	}
}
