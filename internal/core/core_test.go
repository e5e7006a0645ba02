package core

import (
	"bytes"
	"strings"
	"testing"

	"vmp/internal/analytics"
	"vmp/internal/device"
)

// testStudy is shared across tests in this package; stride keeps the
// longitudinal figures cheap while retaining the latest snapshot.
var sharedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if sharedStudy == nil {
		sharedStudy = NewStudy(StudyConfig{SnapshotStride: 8, QoESessions: 40})
	}
	return sharedStudy
}

func TestTable1(t *testing.T) {
	rows := study(t).Table1()
	if len(rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Inferred != r.Protocol {
			t.Errorf("row %s: inferred %s", r.Protocol, r.Inferred)
		}
		if r.Extension == "" || !strings.Contains(r.SampleURL, "http://") {
			t.Errorf("malformed row %+v", r)
		}
	}
}

func TestFig2Family(t *testing.T) {
	s := study(t)
	fig2a := s.Fig2a()
	if fig2a.Latest("HLS") < 80 {
		t.Errorf("Fig2a HLS latest = %.1f, want ~91", fig2a.Latest("HLS"))
	}
	if fig2a.Latest("DASH") <= fig2a.First("DASH") {
		t.Error("Fig2a: DASH support must grow")
	}
	fig2b := s.Fig2b()
	if fig2b.Latest("DASH") < 30 {
		t.Errorf("Fig2b DASH latest = %.1f, want ~38-45", fig2b.Latest("DASH"))
	}
	fig2c := s.Fig2c()
	if fig2c.Latest("DASH") > 10 {
		t.Errorf("Fig2c DASH latest (excl. drivers) = %.1f, want < 10", fig2c.Latest("DASH"))
	}
}

func TestFig3Family(t *testing.T) {
	s := study(t)
	h := s.Fig3a()
	if len(h.Counts) == 0 || h.Counts[0] < 1 {
		t.Fatalf("Fig3a degenerate: %+v", h)
	}
	// Single-protocol publishers carry little VH.
	_, vh1 := h.At(1)
	if vh1 > 15 {
		t.Errorf("1-protocol publishers carry %.1f%% VH, want < ~10", vh1)
	}
	bb := s.Fig3b()
	totalPubs := 0.0
	for _, p := range bb.PubsInBucket {
		totalPubs += p
	}
	if totalPubs < 99.9 || totalPubs > 100.1 {
		t.Errorf("Fig3b bucket populations sum to %.1f%%", totalPubs)
	}
	avg := s.Fig3c()
	last := len(avg.Snapshots) - 1
	if avg.Weighted[last] <= avg.Mean[last] {
		t.Error("Fig3c: weighted average should exceed plain average (larger publishers use more protocols)")
	}
	if avg.Mean[last] < 1.4 || avg.Mean[last] > 2.4 {
		t.Errorf("Fig3c mean latest = %.2f, want ~1.9", avg.Mean[last])
	}
}

func TestFig4(t *testing.T) {
	cdfs := study(t).Fig4()
	hls, ok := cdfs["HLS"]
	if !ok || len(hls.X) == 0 {
		t.Fatal("HLS CDF missing")
	}
	dash := cdfs["DASH"]
	// Fig 4: half of DASH supporters use it for at most ~20% of their
	// view-hours; half of HLS supporters use HLS for ≥85%.
	dashMedian := medianOfCDF(dash)
	hlsMedian := medianOfCDF(hls)
	if dashMedian > 40 {
		t.Errorf("median DASH share among supporters = %.1f%%, want ≤ ~20-30%%", dashMedian)
	}
	if hlsMedian < 60 {
		t.Errorf("median HLS share among supporters = %.1f%%, want ≥ ~85%%", hlsMedian)
	}
	if hlsMedian <= dashMedian {
		t.Error("HLS supporters must lean on HLS more than DASH supporters lean on DASH")
	}
}

func medianOfCDF(c analytics.CDF) float64 {
	for i, p := range c.P {
		if p >= 0.5 {
			return c.X[i]
		}
	}
	if len(c.X) == 0 {
		return 0
	}
	return c.X[len(c.X)-1]
}

func TestFig5(t *testing.T) {
	rows := study(t).Fig5()
	if len(rows) != 5 {
		t.Fatalf("Fig5 has %d platforms, want 5", len(rows))
	}
	if rows[0].Platform != "Browser" || rows[0].AppBased {
		t.Errorf("first row = %+v", rows[0])
	}
}

func TestFig6and7(t *testing.T) {
	s := study(t)
	fig6a := s.Fig6a()
	if fig6a.First("Browser") < fig6a.Latest("Browser") {
		t.Error("Fig6a: browser view-hours must decline")
	}
	if fig6a.Latest("SetTop") < fig6a.First("SetTop") {
		t.Error("Fig6a: set-top view-hours must grow")
	}
	fig6b := s.Fig6b()
	// Excluding the giants, mobile surpasses set-top.
	if fig6b.Latest("Mobile") <= fig6b.Latest("SetTop") {
		t.Errorf("Fig6b: mobile (%.1f) should surpass set-top (%.1f) excluding giants",
			fig6b.Latest("Mobile"), fig6b.Latest("SetTop"))
	}
	fig6c := s.Fig6c()
	if fig6c.Latest("SetTop") >= fig6a.Latest("SetTop") {
		t.Error("set-top view share must lag its view-hour share")
	}
	fig7 := s.Fig7()
	if fig7.Latest("SetTop") <= fig7.First("SetTop") {
		t.Error("Fig7: set-top support must grow")
	}
	if fig7.Latest("SmartTV") <= fig7.First("SmartTV") {
		t.Error("Fig7: smart-TV support must grow")
	}
}

func TestFig8(t *testing.T) {
	cdfs := study(t).Fig8().CDFs
	for _, pl := range []string{"Browser", "Mobile", "SetTop"} {
		if _, ok := cdfs[pl]; !ok {
			t.Errorf("Fig8 missing %s", pl)
		}
	}
}

func TestFig9(t *testing.T) {
	s := study(t)
	h := s.Fig9a()
	multiPub, multiVH := 0.0, 0.0
	for i, n := range h.Counts {
		if n > 1 {
			multiPub += h.PubPct[i]
			multiVH += h.VHPct[i]
		}
	}
	if multiPub < 80 {
		t.Errorf("multi-platform publishers = %.1f%%, want > 85%%", multiPub)
	}
	if multiVH < 90 {
		t.Errorf("multi-platform VH = %.1f%%, want > 95%%", multiVH)
	}
	avg := s.Fig9c()
	last := len(avg.Snapshots) - 1
	if avg.Mean[last] <= avg.Mean[0] {
		t.Error("Fig9c: average platform count must grow")
	}
	if avg.Weighted[last] < 3.8 {
		t.Errorf("Fig9c weighted latest = %.2f, want ~4.5", avg.Weighted[last])
	}
}

func TestFig10(t *testing.T) {
	s := study(t)
	browser := s.Fig10(device.Browser)
	if browser.Latest("HTML5") <= browser.First("HTML5") {
		t.Error("Fig10a: HTML5 must grow")
	}
	if browser.Latest("Flash") >= browser.First("Flash") {
		t.Error("Fig10a: Flash must decline")
	}
	// Paper: a modest Flash drop, ~60% → ~40% of browser view-hours.
	if f := browser.Latest("Flash"); f < 25 || f > 50 {
		t.Errorf("Fig10a Flash latest = %.1f, want ~37-40", f)
	}
	settop := s.Fig10(device.SetTop)
	if settop.Latest("Roku") < 40 {
		t.Errorf("Fig10c Roku = %.1f, want dominant (~54)", settop.Latest("Roku"))
	}
	mobile := s.Fig10(device.Mobile)
	android := mobile.Latest("AndroidPhone") + mobile.Latest("AndroidTablet")
	ios := mobile.Latest("iPhone") + mobile.Latest("iPad")
	if android < 0.7*ios || android > 1.4*ios {
		t.Errorf("Fig10b: Android (%.1f) and iOS (%.1f) should be comparable", android, ios)
	}
}

func TestFig11and12(t *testing.T) {
	s := study(t)
	fig11a := s.Fig11a()
	if fig11a.Latest("A") < 60 {
		t.Errorf("Fig11a: CDN A used by %.1f%% of publishers, want ~80%%", fig11a.Latest("A"))
	}
	fig11b := s.Fig11b()
	if fig11b.First("A") < 45 {
		t.Errorf("Fig11b: CDN A initially dominant, got %.1f%%", fig11b.First("A"))
	}
	for _, c := range []string{"A", "B", "C"} {
		v := fig11b.Latest(c)
		if v < 18 || v > 40 {
			t.Errorf("Fig11b: CDN %s latest = %.1f%%, want 20-35%%", c, v)
		}
	}
	h := s.Fig12a()
	_, vh1 := h.At(1)
	if vh1 > 5 {
		t.Errorf("single-CDN VH = %.1f%%, want < 5%%", vh1)
	}
	avg := s.Fig12c()
	last := len(avg.Snapshots) - 1
	if avg.Weighted[last] < 3.5 {
		t.Errorf("Fig12c weighted latest = %.2f, want ~4.5", avg.Weighted[last])
	}
	if avg.Weighted[last]-avg.Weighted[0] <= avg.Mean[last]-avg.Mean[0] {
		t.Error("Fig12c: weighted average must grow faster than the mean")
	}
}

func TestCDNSegregation(t *testing.T) {
	st := study(t).CDNSegregation()
	if st.EligiblePublishers == 0 {
		t.Fatal("no eligible publishers")
	}
	if st.VoDOnlyFrac <= 0 || st.LiveOnlyFrac <= 0 {
		t.Errorf("segregation fractions = %.2f/%.2f, want positive", st.VoDOnlyFrac, st.LiveOnlyFrac)
	}
}

func TestFig13(t *testing.T) {
	rep, err := study(t).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Combinations.PerDecadeFactor <= 1 || rep.Combinations.PerDecadeFactor >= 10 {
		t.Errorf("combinations factor = %.2f, want sub-linear growth", rep.Combinations.PerDecadeFactor)
	}
	if rep.ProtocolTitles.PerDecadeFactor <= rep.UniqueSDKs.PerDecadeFactor {
		t.Error("protocol-titles should grow faster per decade than unique SDKs (3.8x vs 1.8x)")
	}
}

func TestFig14(t *testing.T) {
	points, cdf := study(t).Fig14()
	if len(points) == 0 || cdf.N() == 0 {
		t.Fatal("empty Fig14")
	}
}

func TestFig15and16(t *testing.T) {
	comps, err := study(t).Fig15and16()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("comparisons = %d, want 2 slices", len(comps))
	}
	for _, c := range comps {
		if c.Owner.MedianKbps <= c.Syndicator.MedianKbps {
			t.Errorf("slice %s/%s: owner median %.0f not above syndicator %.0f",
				c.ISP, c.CDN, c.Owner.MedianKbps, c.Syndicator.MedianKbps)
		}
	}
}

func TestFig17and18(t *testing.T) {
	rows, err := study(t).Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("Fig17 rows = %d", len(rows))
	}
	exp, err := study(t).Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Reports) != 2 {
		t.Fatalf("Fig18 reports = %d", len(exp.Reports))
	}
}

func TestRenderAllFigures(t *testing.T) {
	s := study(t)
	for _, id := range FigureIDs {
		var buf bytes.Buffer
		if err := s.Render(&buf, id); err != nil {
			t.Fatalf("Render(%s): %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("Render(%s) produced no output", id)
		}
	}
	var buf bytes.Buffer
	if err := s.Render(&buf, "99z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
