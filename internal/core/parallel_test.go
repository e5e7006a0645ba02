package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"vmp/internal/analytics"
	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/telemetry"
)

// protocolDim attributes a record to the streaming protocol inferred
// from its manifest URL: the row-at-a-time reference of ProtocolCol.
func protocolDim(r *telemetry.ViewRecord) []string {
	return []string{manifest.InferProtocol(r.URL).String()}
}

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

// relEq tolerates ulp-level drift: the legacy functions sum in Go map
// iteration order, which is itself nondeterministic run-to-run.
func relEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func seriesMatch(t *testing.T, name string, got, want *analytics.TimeSeries) {
	t.Helper()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: keys %v, want %v", name, got.Keys, want.Keys)
	}
	for i, k := range want.Keys {
		if got.Keys[i] != k {
			t.Fatalf("%s: keys %v, want %v", name, got.Keys, want.Keys)
		}
		for si := range want.Series[k] {
			if !relEq(got.Series[k][si], want.Series[k][si]) {
				t.Errorf("%s[%s][%d] = %v, want %v", name, k, si, got.Series[k][si], want.Series[k][si])
			}
		}
	}
}

// TestFrozenFiguresMatchLegacy re-derives a cross-section of figures
// with the legacy slice-backed analytics and checks the frozen-backed
// study methods agree.
func TestFrozenFiguresMatchLegacy(t *testing.T) {
	s := study(t)
	ds, sched := s.Dataset(), s.Schedule()

	seriesMatch(t, "fig2a", s.Fig2a(), analytics.ShareOfPublishers(ds, sched, protocolDim))
	seriesMatch(t, "fig2b", s.Fig2b(), analytics.ShareOfViewHours(ds, sched, protocolDim, nil))
	seriesMatch(t, "fig6c", s.Fig6c(), analytics.ShareOfViews(ds, sched, analytics.PlatformDim, nil))
	seriesMatch(t, "fig11b", s.Fig11b(), analytics.ShareOfViewHours(ds, sched, analytics.CDNDim, nil))
	seriesMatch(t, "fig10a", s.Fig10(device.Browser),
		analytics.ShareOfViewHours(ds, sched, analytics.DeviceDim(device.Browser), nil))

	exclude := analytics.TopPublishersByViewHours(ds.Window(sched.Latest()), 3)
	seriesMatch(t, "fig6b", s.Fig6b(), analytics.ShareOfViewHours(ds, sched, analytics.PlatformDim, exclude))

	legacyAvg := analytics.AverageInstances(ds, sched, analytics.CDNDim)
	gotAvg := s.Fig12c()
	for i := range legacyAvg.Snapshots {
		if !relEq(gotAvg.Mean[i], legacyAvg.Mean[i]) || !relEq(gotAvg.Weighted[i], legacyAvg.Weighted[i]) {
			t.Errorf("fig12c[%d] = (%v, %v), want (%v, %v)", i,
				gotAvg.Mean[i], gotAvg.Weighted[i], legacyAvg.Mean[i], legacyAvg.Weighted[i])
		}
	}

	latest := ds.Window(sched.Latest())
	wantHist := analytics.InstancesPerPublisher(latest, protocolDim)
	gotHist := s.Fig3a()
	if len(gotHist.Counts) != len(wantHist.Counts) {
		t.Fatalf("fig3a counts %v, want %v", gotHist.Counts, wantHist.Counts)
	}
	for i := range wantHist.Counts {
		if gotHist.Counts[i] != wantHist.Counts[i] ||
			!relEq(gotHist.PubPct[i], wantHist.PubPct[i]) || !relEq(gotHist.VHPct[i], wantHist.VHPct[i]) {
			t.Errorf("fig3a row %d mismatch", i)
		}
	}

	wantMacro := analytics.Macro(latest, sched.Latest().Days)
	gotMacro := s.Macro()
	if gotMacro.Publishers != wantMacro.Publishers || gotMacro.SampledViews != wantMacro.SampledViews ||
		gotMacro.DistinctGeos != wantMacro.DistinctGeos ||
		!relEq(gotMacro.ViewHours, wantMacro.ViewHours) {
		t.Errorf("macro = %+v, want %+v", gotMacro, wantMacro)
	}

	// Fig 4 and the cross-tab sum in record order, as their references
	// do: equal to the bit.
	for _, key := range []string{"DASH", "HLS"} {
		if got, want := s.Fig4()[key], analytics.SupporterShareCDF(latest, protocolDim, key); !reflect.DeepEqual(got, want) {
			t.Errorf("fig4 %s = %+v, want %+v", key, got, want)
		}
	}
	if got, want := s.ProtocolPlatformCross(), analytics.Cross(latest, analytics.PlatformDim, protocolDim); !reflect.DeepEqual(got, want) {
		t.Errorf("crosstab = %+v, want %+v", got, want)
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
