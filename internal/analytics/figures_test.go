package analytics_test

import (
	"reflect"
	"testing"

	"vmp/internal/analytics"
	"vmp/internal/core"
	"vmp/internal/device"
)

// TestFrozenFiguresMatchLegacy re-derives a cross-section of a study's
// figures with the row-at-a-time references and checks the study's
// methods, which run the column kernels, agree.
func TestFrozenFiguresMatchLegacy(t *testing.T) {
	s := core.NewStudy(core.StudyConfig{SnapshotStride: 8})
	ds, sched := s.Dataset(), s.Schedule()
	protocolDim := analytics.ProtocolDim
	seriesMatch := analytics.RequireSeriesEqual
	relEq := analytics.ApproxEq

	seriesMatch(t, "fig2a", s.Fig2a(), analytics.ShareOfPublishers(ds, sched, protocolDim))
	seriesMatch(t, "fig2b", s.Fig2b(), analytics.ShareOfViewHours(ds, sched, protocolDim, nil))
	seriesMatch(t, "fig6c", s.Fig6c(), analytics.ShareOfViews(ds, sched, analytics.PlatformDim, nil))
	seriesMatch(t, "fig11b", s.Fig11b(), analytics.ShareOfViewHours(ds, sched, analytics.CDNDim, nil))
	seriesMatch(t, "fig10a", s.Fig10(device.Browser),
		analytics.ShareOfViewHours(ds, sched, analytics.DeviceDim(device.Browser), nil))

	lo, hi := ds.WindowBounds(sched.Latest())
	latest := ds.All()[lo:hi]
	exclude := analytics.TopPublishersByViewHours(latest, 3)
	seriesMatch(t, "fig6b", s.Fig6b(), analytics.ShareOfViewHours(ds, sched, analytics.PlatformDim, exclude))

	legacyAvg := analytics.AverageInstances(ds, sched, analytics.CDNDim)
	gotAvg := s.Fig12c()
	for i := range legacyAvg.Snapshots {
		if !relEq(gotAvg.Mean[i], legacyAvg.Mean[i]) || !relEq(gotAvg.Weighted[i], legacyAvg.Weighted[i]) {
			t.Errorf("fig12c[%d] = (%v, %v), want (%v, %v)", i,
				gotAvg.Mean[i], gotAvg.Weighted[i], legacyAvg.Mean[i], legacyAvg.Weighted[i])
		}
	}

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

	// Fig 4, the cross-tab and the segregation count or sum in record
	// order, as their references do: equal to the bit.
	for _, key := range []string{"DASH", "HLS"} {
		if got, want := s.Fig4()[key], analytics.SupporterShareCDF(latest, protocolDim, key); !reflect.DeepEqual(got, want) {
			t.Errorf("fig4 %s = %+v, want %+v", key, got, want)
		}
	}
	if got, want := s.ProtocolPlatformCross(), analytics.Cross(latest, analytics.PlatformDim, protocolDim); !reflect.DeepEqual(got, want) {
		t.Errorf("crosstab = %+v, want %+v", got, want)
	}
	if got, want := s.CDNSegregation(), analytics.Segregation(latest); !reflect.DeepEqual(got, want) {
		t.Errorf("cdn-segregation = %+v, want %+v", got, want)
	}
}
