package syndication

import (
	"reflect"
	"sync"
	"testing"

	"vmp/internal/cdnsim"
	"vmp/internal/dist"
	"vmp/internal/ecosystem"
	"vmp/internal/netmodel"
)

func TestPrevalence(t *testing.T) {
	e := ecosystem.New(ecosystem.Config{SnapshotStride: 30})
	points, cdf := Prevalence(e.Publishers)
	if len(points) == 0 || cdf.N() == 0 {
		t.Fatal("empty prevalence analysis")
	}
	// Fig 14: >80% of owners use at least one syndicator.
	zero := cdf.At(0)
	if zero > 0.25 {
		t.Errorf("%.2f of owners use no syndicator, want < 0.20", zero)
	}
	// The top owners reach ~1/3 of full syndicators.
	max, err := cdf.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if max < 30 || max > 45 {
		t.Errorf("max syndicator reach = %.1f%%, want ~33%%", max)
	}
	// Points are sorted ascending.
	for i := 1; i < len(points); i++ {
		if points[i].Percent < points[i-1].Percent {
			t.Fatal("prevalence points not sorted")
		}
	}
}

func TestPrevalenceNoSyndicators(t *testing.T) {
	pubs := []*ecosystem.Publisher{{ID: "solo"}}
	points, cdf := Prevalence(pubs)
	if len(points) != 1 || points[0].Percent != 0 {
		t.Fatalf("points = %+v", points)
	}
	if cdf.At(0) != 1 {
		t.Fatal("owner with no syndicators should sit at 0%")
	}
}

func TestStarCatalogueInvariants(t *testing.T) {
	cat := StarCatalogue()
	if err := cat.CheckFig17Invariants(); err != nil {
		t.Fatal(err)
	}
	rows := cat.LadderTable()
	if len(rows) != 11 {
		t.Fatalf("ladder table rows = %d, want 11 (owner + S1..S10)", len(rows))
	}
	if rows[0].Publisher != "O" || rows[0].Count != 9 {
		t.Fatalf("owner row = %+v", rows[0])
	}
	// Ladder counts must vary widely (Fig 17's heterogeneity).
	min, max := rows[0].Count, rows[0].Count
	for _, r := range rows {
		if r.Count < min {
			min = r.Count
		}
		if r.Count > max {
			max = r.Count
		}
		if r.MinKbps <= 0 || r.MaxKbps < r.MinKbps {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	if min != 3 || max != 14 {
		t.Fatalf("ladder count range [%d, %d], want [3, 14]", min, max)
	}
}

func TestSyndicatorByID(t *testing.T) {
	cat := StarCatalogue()
	if _, ok := cat.SyndicatorByID("S7"); !ok {
		t.Fatal("S7 missing")
	}
	if _, ok := cat.SyndicatorByID("S99"); ok {
		t.Fatal("ghost syndicator resolved")
	}
}

func TestStorageExperimentFig18(t *testing.T) {
	exp, err := RunStorageExperiment(DefaultStorageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Reports) != 2 {
		t.Fatalf("reports for %d CDNs, want 2 (A and B)", len(exp.Reports))
	}
	for _, r := range exp.Reports {
		rep := r.Report
		// Paper: 1916 TB per common CDN.
		tb := float64(rep.TotalBytes) / 1e12
		if tb < 1800 || tb > 2050 {
			t.Errorf("CDN %s total = %.0f TB, want ~1916", r.CDN, tb)
		}
		// Paper: 5%% → 316.1 TB (16.5%%); 10%% → 865 TB (45.2%%);
		// integrated → 1257 TB (65.6%%). Shape bands below.
		if rep.Tol5Pct < 12 || rep.Tol5Pct > 21 {
			t.Errorf("CDN %s 5%% savings = %.1f%%, want ~16.5%%", r.CDN, rep.Tol5Pct)
		}
		if rep.Tol10Pct < 38 || rep.Tol10Pct > 55 {
			t.Errorf("CDN %s 10%% savings = %.1f%%, want ~45%%", r.CDN, rep.Tol10Pct)
		}
		if rep.IntegratedPct < 58 || rep.IntegratedPct > 72 {
			t.Errorf("CDN %s integrated savings = %.1f%%, want ~65.6%%", r.CDN, rep.IntegratedPct)
		}
		// Fig 18 ordering.
		if !(rep.Integrated > rep.Tol10 && rep.Tol10 > rep.Tol5 && rep.Tol5 >= rep.Exact) {
			t.Errorf("CDN %s savings ordering violated: %+v", r.CDN, rep)
		}
	}
	// A and B hold identical copies, so their reports must agree.
	if exp.Reports[0].Report != exp.Reports[1].Report {
		t.Error("CDNs A and B should report identical savings")
	}
}

func TestStorageExperimentBadConfig(t *testing.T) {
	if _, err := RunStorageExperiment(StorageConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// BenchmarkAblationDedupTolerance sweeps the dedup tolerance on an
// origin holding 100 titles of each Fig 18 ladder and reports the
// savings percentage at each setting (DESIGN.md §5).
func BenchmarkAblationDedupTolerance(b *testing.B) {
	for _, c := range []struct {
		name string
		tol  float64
	}{{"exact", 0}, {"tol2.5%", 0.025}, {"tol5%", 0.05}, {"tol10%", 0.10}, {"tol20%", 0.20}} {
		b.Run(c.name, func(b *testing.B) {
			origin := cdnsim.NewOrigin()
			push := func(pub string, ladder []int) {
				m := map[int]int64{}
				for _, kbps := range ladder {
					m[kbps] = int64(kbps) * 450000
				}
				for t := 0; t < 100; t++ {
					origin.Push(pub, string(rune('a'+t%26))+string(rune('0'+t/26)), m)
				}
			}
			push("O", storageOwnerLadder)
			push("S1", storageSynd1Ladder)
			push("S2", storageSynd2Ladder)
			var saved int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				saved = origin.DedupSavings(c.tol)
			}
			b.ReportMetric(100*float64(saved)/float64(origin.TotalBytes()), "%saved")
		})
	}
}

func TestCompareQoEOwnerWins(t *testing.T) {
	cdns := cdnsim.NewRegistry(dist.NewSource(1))
	slices, err := DefaultSlices(cdns, 60, ecosystem.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cat := StarCatalogue()
	s7, _ := cat.SyndicatorByID("S7")
	for _, sl := range slices {
		owner, synd, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
		if err != nil {
			t.Fatal(err)
		}
		// Fig 15: the owner's clients get better median average
		// bitrate (paper: 2.5x on its slices).
		ratio := owner.MedianKbps / synd.MedianKbps
		if ratio < 1.15 {
			t.Errorf("slice %s/%s: owner/synd median bitrate ratio %.2f, want > 1.15",
				sl.ISP.Name, sl.CDN.Name, ratio)
		}
		// Fig 16: the owner's clients never rebuffer more.
		if owner.P90RebufPct > synd.P90RebufPct+1e-9 {
			t.Errorf("slice %s/%s: owner p90 rebuffering %.2f%% exceeds syndicator %.2f%%",
				sl.ISP.Name, sl.CDN.Name, owner.P90RebufPct, synd.P90RebufPct)
		}
	}
	// At least one slice separates the rebuffering distributions.
	sl := slices[1]
	owner, synd, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
	if err != nil {
		t.Fatal(err)
	}
	if synd.P90RebufPct == 0 {
		t.Error("expected rebuffering on the ISP-Y 4G slice")
	}
	if owner.P90RebufPct > 0.7*synd.P90RebufPct {
		t.Errorf("owner p90 rebuf %.2f%% not ≥40%% lower than syndicator %.2f%% (paper: 40%% lower)",
			owner.P90RebufPct, synd.P90RebufPct)
	}
}

func TestCompareQoEBitrateRatioStrongSlice(t *testing.T) {
	cdns := cdnsim.NewRegistry(dist.NewSource(1))
	slices, err := DefaultSlices(cdns, 60, ecosystem.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cat := StarCatalogue()
	s7, _ := cat.SyndicatorByID("S7")
	owner, synd, err := CompareQoE(cat.Owner, s7, cat.TitleID, slices[0])
	if err != nil {
		t.Fatal(err)
	}
	ratio := owner.MedianKbps / synd.MedianKbps
	if ratio < 2.0 || ratio > 3.6 {
		t.Errorf("ISP-X median ratio = %.2f, want ~2.5 (paper)", ratio)
	}
}

func TestCompareQoEValidation(t *testing.T) {
	cat := StarCatalogue()
	s7, _ := cat.SyndicatorByID("S7")
	if _, _, err := CompareQoE(cat.Owner, s7, cat.TitleID, QoESlice{}); err == nil {
		t.Fatal("zero slice accepted")
	}
	cdns := cdnsim.NewRegistry(dist.NewSource(1))
	a, _ := cdns.ByName("A")
	ispX, _ := netmodel.ISPByName("ISP-X")
	if _, _, err := CompareQoE(cat.Owner, s7, cat.TitleID,
		QoESlice{ISP: ispX, CDN: a, Sessions: 0}); err == nil {
		t.Fatal("zero sessions accepted")
	}
}

func TestCompareQoEDeterminism(t *testing.T) {
	cdns := cdnsim.NewRegistry(dist.NewSource(1))
	ispX, _ := netmodel.ISPByName("ISP-X")
	a, _ := cdns.ByName("A")
	sl := QoESlice{ISP: ispX, Conn: netmodel.Cellular, CDN: a, Sessions: 20, WatchSec: 600, Seed: 5}
	cat := StarCatalogue()
	s7, _ := cat.SyndicatorByID("S7")
	o1, s1, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh CDN (edge caches are stateful) for the repeat run.
	cdns2 := cdnsim.NewRegistry(dist.NewSource(1))
	a2, _ := cdns2.ByName("A")
	sl.CDN = a2
	o2, s2, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
	if err != nil {
		t.Fatal(err)
	}
	if o1.MedianKbps != o2.MedianKbps || s1.MedianKbps != s2.MedianKbps {
		t.Fatal("QoE comparison not deterministic")
	}
}

// TestCompareQoESlicesIndependent: Fig 15/16 play the two default
// slices at once, so each slice must measure the same distributions
// beside the other as alone. Each run gets a fresh registry, since edge
// caches keep state; -race watches the concurrent run.
func TestCompareQoESlicesIndependent(t *testing.T) {
	cat := StarCatalogue()
	s7, _ := cat.SyndicatorByID("S7")
	type pair struct{ owner, synd QoEDist }
	slicesOf := func() []QoESlice {
		sl, err := DefaultSlices(cdnsim.NewRegistry(dist.NewSource(1)), 30, ecosystem.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	alone := make([]pair, 2)
	for i := range alone {
		sl := slicesOf()[i]
		o, s, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = pair{o, s}
	}
	beside := make([]pair, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, sl := range slicesOf() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, s, err := CompareQoE(cat.Owner, s7, cat.TitleID, sl)
			beside[i], errs[i] = pair{o, s}, err
		}()
	}
	wg.Wait()
	for i := range beside {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(alone[i], beside[i]) {
			t.Errorf("slice %d: QoE beside the other slice differs from alone", i)
		}
	}
}
