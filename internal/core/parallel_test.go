package core

import (
	"bytes"
	"slices"
	"testing"
)

// TestRenderAllParallelByteIdentical is the determinism guarantee of
// the parallel engine: for the documented seed, the full study rendered
// through the worker pool is byte-for-byte the serial output.
func TestRenderAllParallelByteIdentical(t *testing.T) {
	cfg := StudyConfig{SnapshotStride: 12, QoESessions: 20}
	var serial, parallel bytes.Buffer

	if err := NewStudy(cfg).RenderAll(&serial); err != nil {
		t.Fatalf("serial RenderAll: %v", err)
	}
	if err := NewStudy(cfg).RenderAllParallel(&parallel, 8); err != nil {
		t.Fatalf("parallel RenderAll: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("parallel output differs from serial:\n--- serial %d bytes\n--- parallel %d bytes",
			serial.Len(), parallel.Len())
	}
	if serial.Len() == 0 {
		t.Fatal("empty study output")
	}
}

// TestRunAllDispatchOrder holds RunAll's start order to what it is
// for: every figure once, Figs 15 and 18 — the two longest — first.
func TestRunAllDispatchOrder(t *testing.T) {
	ids := make([]string, len(dispatchOrder))
	for k, i := range dispatchOrder {
		ids[k] = FigureIDs[i]
	}
	if len(ids) < 2 || ids[0] != "15" || ids[1] != "18" {
		t.Fatalf("RunAll starts with %v, want 15 and 18 first", ids[:min(len(ids), 2)])
	}
	want := slices.Clone(FigureIDs)
	slices.Sort(ids)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Fatalf("RunAll dispatches %v, not a permutation of FigureIDs %v", ids, want)
	}
}

// TestMemoizationReturnsSameValue: repeated figure calls must hand back
// the identical cached object, not a recomputation.
func TestMemoizationReturnsSameValue(t *testing.T) {
	s := study(t)
	if s.Fig2b() != s.Fig2b() {
		t.Error("Fig2b recomputed instead of memoized")
	}
	if s.Fig3a() != s.Fig3a() {
		t.Error("Fig3a recomputed instead of memoized")
	}
	a, err := s.Fig15and16()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fig15and16()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
		t.Error("Fig15and16 recomputed instead of memoized")
	}
}
