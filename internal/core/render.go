package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"vmp/internal/analytics"
	"vmp/internal/complexity"
	"vmp/internal/device"
	"vmp/internal/obs"
	"vmp/internal/stats"
)

// FigureIDs lists every renderable experiment in presentation order.
var FigureIDs = []string{
	"macro", "tab1", "2a", "2b", "2c", "3a", "3b", "3c", "4", "5",
	"6a", "6b", "6c", "7", "8", "9a", "9b", "9c",
	"10a", "10b", "10c", "11a", "11b", "12a", "12b", "12c",
	"cdn-segregation", "crosstab", "13a", "13b", "13c", "14", "15", "16", "17", "18",
}

// Render writes the named table or figure as text. Unknown IDs return
// an error listing the valid ones. When a tracer is attached (see
// SetTracer) each call records a figure.<id> span, so a full-study run
// yields a per-figure timing table.
func (s *Study) Render(w io.Writer, id string) error {
	sp := s.tracer.Start("figure."+id, 0)
	err := s.renderFigure(w, id)
	ok := int64(1)
	if err != nil {
		ok = 0
	}
	sp.End(obs.KV("ok", ok))
	return err
}

func (s *Study) renderFigure(w io.Writer, id string) error {
	switch id {
	case "macro":
		m := s.Macro()
		fmt.Fprintln(w, "§3 macroscopic context (latest snapshot)")
		fmt.Fprintf(w, "  publishers observed:      %d   (paper: >100)\n", m.Publishers)
		fmt.Fprintf(w, "  sampled view records:     %d (expansion-weighted)\n", m.SampledViews)
		fmt.Fprintf(w, "  views represented:        %.2e\n", m.ViewsRepresented)
		fmt.Fprintf(w, "  daily view-hours (X units): %.2e\n", m.DailyViewHours)
		fmt.Fprintf(w, "  distinct geographies:     %d   (paper: 180 countries)\n", m.DistinctGeos)
	case "tab1":
		fmt.Fprintln(w, "Table 1: streaming protocol manifest extensions")
		for _, r := range s.Table1() {
			fmt.Fprintf(w, "  %-16s %-6s %-50s inferred=%s\n", r.Protocol, r.Extension, r.SampleURL, r.Inferred)
		}
	case "2a":
		renderTimeSeries(w, "Fig 2a: % of publishers supporting each protocol", s.Fig2a())
	case "2b":
		renderTimeSeries(w, "Fig 2b: % of view-hours by protocol", s.Fig2b())
	case "2c":
		renderTimeSeries(w, "Fig 2c: % of view-hours by protocol (excl. DASH drivers)", s.Fig2c())
	case "3a":
		renderHistogram(w, "Fig 3a: number of protocols per publisher", s.Fig3a())
	case "3b":
		renderBuckets(w, "Fig 3b: protocols per publisher, by view-hour decade", s.Fig3b())
	case "3c":
		renderAverages(w, "Fig 3c: average protocols per publisher", s.Fig3c())
	case "4":
		renderCDFMap(w, "Fig 4: CDF across publishers of % view-hours via protocol", s.Fig4(),
			[]float64{25, 50, 75, 90})
	case "5":
		fmt.Fprintln(w, "Fig 5: target platforms for video publishers")
		for _, r := range s.Fig5() {
			kind := "browser-based"
			if r.AppBased {
				kind = "app-based"
			}
			fmt.Fprintf(w, "  %-8s (%s): %s\n", r.Platform, kind, strings.Join(r.Models, ", "))
		}
	case "6a":
		renderTimeSeries(w, "Fig 6a: % of view-hours per platform", s.Fig6a())
	case "6b":
		renderTimeSeries(w, "Fig 6b: % of view-hours per platform (excl. 3 largest)", s.Fig6b())
	case "6c":
		renderTimeSeries(w, "Fig 6c: % of views per platform", s.Fig6c())
	case "7":
		renderTimeSeries(w, "Fig 7: % of publishers supporting each platform", s.Fig7())
	case "8":
		d := s.Fig8()
		renderCDFMap(w, "Fig 8: CDF of view duration (hours) per platform", d.CDFs, nil)
		for _, pl := range []string{"Mobile", "Browser", "SetTop"} {
			if pct, ok := d.LongPct[pl]; ok {
				fmt.Fprintf(w, "  views > 0.2h on %-8s: %5.1f%%\n", pl, pct)
			}
		}
	case "9a":
		renderHistogram(w, "Fig 9a: number of platforms per publisher", s.Fig9a())
	case "9b":
		renderBuckets(w, "Fig 9b: platforms per publisher, by view-hour decade", s.Fig9b())
	case "9c":
		renderAverages(w, "Fig 9c: average platforms per publisher", s.Fig9c())
	case "10a":
		renderTimeSeries(w, "Fig 10a: % of browser view-hours by player", s.Fig10(device.Browser))
	case "10b":
		renderTimeSeries(w, "Fig 10b: % of mobile view-hours by device", s.Fig10(device.Mobile))
	case "10c":
		renderTimeSeries(w, "Fig 10c: % of set-top view-hours by device", s.Fig10(device.SetTop))
	case "11a":
		renderTimeSeries(w, "Fig 11a: % of publishers using each CDN", topCDNsOnly(s.Fig11a()))
	case "11b":
		renderTimeSeries(w, "Fig 11b: % of view-hours by CDN", topCDNsOnly(s.Fig11b()))
	case "12a":
		renderHistogram(w, "Fig 12a: number of CDNs per publisher", s.Fig12a())
	case "12b":
		renderBuckets(w, "Fig 12b: CDNs per publisher, by view-hour decade", s.Fig12b())
	case "12c":
		renderAverages(w, "Fig 12c: average CDNs per publisher", s.Fig12c())
	case "cdn-segregation":
		st := s.CDNSegregation()
		fmt.Fprintln(w, "§4.3: live/VoD CDN segregation among eligible publishers")
		fmt.Fprintf(w, "  eligible publishers (multi-CDN, both content types): %d\n", st.EligiblePublishers)
		fmt.Fprintf(w, "  with ≥1 VoD-only CDN:  %5.1f%%  (paper: 30%%)\n", 100*st.VoDOnlyFrac)
		fmt.Fprintf(w, "  with ≥1 live-only CDN: %5.1f%%  (paper: 19%%)\n", 100*st.LiveOnlyFrac)
		fmt.Fprintf(w, "  fully segregated:      %d publisher(s) (paper: one extreme case)\n", st.FullySegregated)
	case "crosstab":
		ct := s.ProtocolPlatformCross()
		fmt.Fprintln(w, "§3 slice: % of each platform's view-hours by protocol (latest snapshot)")
		fmt.Fprintf(w, "  %-10s", "")
		for _, col := range ct.ColKeys {
			fmt.Fprintf(w, " %16s", col)
		}
		fmt.Fprintln(w)
		for _, row := range ct.RowKeys {
			fmt.Fprintf(w, "  %-10s", row)
			for _, col := range ct.ColKeys {
				fmt.Fprintf(w, " %15.1f%%", 100*ct.RowShare(row, col))
			}
			fmt.Fprintln(w)
		}
	case "13a", "13b", "13c":
		rep, err := s.Fig13()
		if err != nil {
			return err
		}
		var c complexity.Correlation
		switch id {
		case "13a":
			c = rep.Combinations
		case "13b":
			c = rep.ProtocolTitles
		default:
			c = rep.UniqueSDKs
		}
		fmt.Fprintf(w, "Fig %s: %s vs publisher view-hours\n", id, c.Metric)
		fmt.Fprintf(w, "  log-log slope %.3f  →  %.2fx per 10x view-hours (R²=%.2f, p=%.2g, n=%d)\n",
			c.Fit.Slope, c.PerDecadeFactor, c.Fit.R2, c.Fit.PValue, c.Fit.N)
		if id == "13c" {
			fmt.Fprintf(w, "  largest publisher maintains %.0f distinct SDK/browser versions (paper: up to 85)\n", rep.MaxUniqueSDKs)
		}
	case "14":
		_, cdf := s.Fig14()
		fmt.Fprintln(w, "Fig 14: CDF over owners of % of full syndicators used")
		for _, q := range []float64{0.2, 0.5, 0.8, 0.95, 1.0} {
			v, err := cdf.Quantile(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  p%-3.0f: %5.1f%% of syndicators\n", q*100, v)
		}
		fmt.Fprintf(w, "  owners using ≥1 syndicator: %.1f%%  (paper: >80%%)\n", 100*(1-cdf.At(0)))
	case "15", "16":
		comps, err := s.Fig15and16()
		if err != nil {
			return err
		}
		if id == "15" {
			fmt.Fprintln(w, "Fig 15: average bitrate, owner vs syndicator (iPad clients)")
			for _, c := range comps {
				fmt.Fprintf(w, "  ISP %s / CDN %s: owner median %.0f Kbps, syndicator %.0f Kbps (%.2fx)\n",
					c.ISP, c.CDN, c.Owner.MedianKbps, c.Syndicator.MedianKbps,
					c.Owner.MedianKbps/c.Syndicator.MedianKbps)
			}
		} else {
			fmt.Fprintln(w, "Fig 16: rebuffering, owner vs syndicator (iPad clients)")
			for _, c := range comps {
				fmt.Fprintf(w, "  ISP %s / CDN %s: p90 rebuffering owner %.2f%%, syndicator %.2f%%\n",
					c.ISP, c.CDN, c.Owner.P90RebufPct, c.Syndicator.P90RebufPct)
			}
		}
	case "17":
		rows, err := s.Fig17()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig 17: bitrate ladders for one syndicated video ID")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-4s %2d bitrates  [%d..%d Kbps]  %v\n",
				r.Publisher, r.Count, r.MinKbps, r.MaxKbps, r.Bitrates)
		}
	case "18":
		exp, err := s.Fig18()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig 18: origin storage savings under syndication models")
		for _, r := range exp.Reports {
			rep := r.Report
			fmt.Fprintf(w, "  CDN %s: catalogue %.0f TB\n", r.CDN, float64(rep.TotalBytes)/1e12)
			fmt.Fprintf(w, "    5%% tolerance : %7.1f TB (%.1f%%)   paper: 316.1 TB (16.5%%)\n",
				float64(rep.Tol5)/1e12, rep.Tol5Pct)
			fmt.Fprintf(w, "    10%% tolerance: %7.1f TB (%.1f%%)   paper: 865 TB (45.2%%)\n",
				float64(rep.Tol10)/1e12, rep.Tol10Pct)
			fmt.Fprintf(w, "    integrated   : %7.1f TB (%.1f%%)   paper: 1257 TB (65.6%%)\n",
				float64(rep.Integrated)/1e12, rep.IntegratedPct)
		}
	default:
		return fmt.Errorf("core: unknown figure %q (valid: %s)", id, strings.Join(FigureIDs, ", "))
	}
	return nil
}

// RenderAll renders every experiment in order.
func (s *Study) RenderAll(w io.Writer) error {
	for _, id := range FigureIDs {
		if err := s.Render(w, id); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// renderTimeSeries prints first/mid/latest values per key.
func renderTimeSeries(w io.Writer, title string, ts *analytics.TimeSeries) {
	fmt.Fprintln(w, title)
	n := len(ts.Snapshots)
	if n == 0 {
		fmt.Fprintln(w, "  (no snapshots)")
		return
	}
	fmt.Fprintf(w, "  %-18s %10s %10s %10s\n", "", ts.Snapshots[0], ts.Snapshots[n/2], ts.Snapshots[n-1])
	for _, k := range ts.Keys {
		row := ts.Series[k]
		fmt.Fprintf(w, "  %-18s %9.1f%% %9.1f%% %9.1f%%\n", k, row[0], row[n/2], row[n-1])
	}
}

// topCDNsOnly filters a CDN series to the anonymized top five, folding
// the regionals into "other".
func topCDNsOnly(ts *analytics.TimeSeries) *analytics.TimeSeries {
	out := &analytics.TimeSeries{Snapshots: ts.Snapshots, Series: map[string][]float64{}}
	other := make([]float64, len(ts.Snapshots))
	hasOther := false
	for _, k := range ts.Keys {
		if len(k) == 1 { // A-E
			out.Keys = append(out.Keys, k)
			out.Series[k] = ts.Series[k]
			continue
		}
		hasOther = true
		for i, v := range ts.Series[k] {
			other[i] += v
		}
	}
	sort.Strings(out.Keys)
	if hasOther {
		out.Keys = append(out.Keys, "other")
		out.Series["other"] = other
	}
	return out
}

func renderHistogram(w io.Writer, title string, h *analytics.Histogram) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-10s %12s %12s\n", "instances", "% publishers", "% view-hours")
	for i, n := range h.Counts {
		fmt.Fprintf(w, "  %-10d %11.1f%% %11.1f%%\n", n, h.PubPct[i], h.VHPct[i])
	}
}

func renderBuckets(w io.Writer, title string, bb *analytics.BucketBreakdown) {
	fmt.Fprintln(w, title)
	labels := []string{"<X", "X-10X", "10X-100X", "100X-1000X", "10^3X-10^4X", "10^4X-10^5X", ">10^5X"}
	for b, cell := range bb.Buckets {
		label := fmt.Sprintf("bucket %d", b)
		if b < len(labels) {
			label = labels[b]
		}
		if bb.PubsInBucket[b] == 0 {
			continue
		}
		var counts []int
		for n := range cell {
			counts = append(counts, n)
		}
		sort.Ints(counts)
		fmt.Fprintf(w, "  %-12s %5.1f%% of publishers:", label, bb.PubsInBucket[b])
		for _, n := range counts {
			fmt.Fprintf(w, "  %d→%.1f%%", n, cell[n])
		}
		fmt.Fprintln(w)
	}
}

func renderAverages(w io.Writer, title string, a *analytics.AveragesSeries) {
	fmt.Fprintln(w, title)
	n := len(a.Snapshots)
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "  %-10s first=%.2f latest=%.2f\n", "mean", a.Mean[0], a.Mean[n-1])
	fmt.Fprintf(w, "  %-10s first=%.2f latest=%.2f\n", "weighted", a.Weighted[0], a.Weighted[n-1])
}

func renderCDFMap(w io.Writer, title string, cdfs map[string]analytics.CDF, quantiles []float64) {
	fmt.Fprintln(w, title)
	var keys []string
	for k := range cdfs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cdf := cdfs[k]
		e := stats.NewECDF(rebuild(cdf))
		if e.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s p25=%.3f p50=%.3f p75=%.3f p90=%.3f\n",
			k, e.MustQuantile(0.25), e.MustQuantile(0.5), e.MustQuantile(0.75), e.MustQuantile(0.9))
	}
	_ = quantiles
}

// rebuild reconstitutes an approximate sample from CDF points so the
// renderer can quote quantiles; exact for the step CDFs we produce.
func rebuild(c analytics.CDF) []float64 {
	var out []float64
	prev := 0.0
	const resolution = 1000
	for i, x := range c.X {
		n := int((c.P[i] - prev) * resolution)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			out = append(out, x)
		}
		prev = c.P[i]
	}
	return out
}
