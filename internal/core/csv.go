package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"vmp/internal/analytics"
	"vmp/internal/complexity"
	"vmp/internal/device"
)

// RenderCSV writes the named figure's underlying data as CSV, the
// machine-readable export used for re-plotting. Every figure that
// Render supports is covered; purely tabular exhibits (tab1, 5, 17)
// export their rows.
func (s *Study) RenderCSV(w io.Writer, id string) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	switch id {
	case "macro":
		m := s.Macro()
		cw.Write([]string{"publishers", "sampled_views", "views_represented", "daily_view_hours", "distinct_geos"})
		cw.Write([]string{
			strconv.Itoa(m.Publishers), strconv.Itoa(m.SampledViews),
			fmtF(m.ViewsRepresented), fmtF(m.DailyViewHours), strconv.Itoa(m.DistinctGeos),
		})
	case "tab1":
		cw.Write([]string{"protocol", "extension", "sample_url", "inferred"})
		for _, r := range s.Table1() {
			cw.Write([]string{r.Protocol, r.Extension, r.SampleURL, r.Inferred})
		}
	case "2a":
		return timeSeriesCSV(cw, s.Fig2a())
	case "2b":
		return timeSeriesCSV(cw, s.Fig2b())
	case "2c":
		return timeSeriesCSV(cw, s.Fig2c())
	case "3a":
		return histogramCSV(cw, s.Fig3a())
	case "3b":
		return bucketsCSV(cw, s.Fig3b())
	case "3c":
		return averagesCSV(cw, s.Fig3c())
	case "4":
		return cdfMapCSV(cw, s.Fig4())
	case "5":
		cw.Write([]string{"platform", "app_based", "model"})
		for _, r := range s.Fig5() {
			for _, m := range r.Models {
				cw.Write([]string{r.Platform, strconv.FormatBool(r.AppBased), m})
			}
		}
	case "6a":
		return timeSeriesCSV(cw, s.Fig6a())
	case "6b":
		return timeSeriesCSV(cw, s.Fig6b())
	case "6c":
		return timeSeriesCSV(cw, s.Fig6c())
	case "7":
		return timeSeriesCSV(cw, s.Fig7())
	case "8":
		return cdfMapCSV(cw, s.Fig8().CDFs)
	case "9a":
		return histogramCSV(cw, s.Fig9a())
	case "9b":
		return bucketsCSV(cw, s.Fig9b())
	case "9c":
		return averagesCSV(cw, s.Fig9c())
	case "10a":
		return timeSeriesCSV(cw, s.Fig10(device.Browser))
	case "10b":
		return timeSeriesCSV(cw, s.Fig10(device.Mobile))
	case "10c":
		return timeSeriesCSV(cw, s.Fig10(device.SetTop))
	case "11a":
		return timeSeriesCSV(cw, topCDNsOnly(s.Fig11a()))
	case "11b":
		return timeSeriesCSV(cw, topCDNsOnly(s.Fig11b()))
	case "12a":
		return histogramCSV(cw, s.Fig12a())
	case "12b":
		return bucketsCSV(cw, s.Fig12b())
	case "12c":
		return averagesCSV(cw, s.Fig12c())
	case "cdn-segregation":
		st := s.CDNSegregation()
		cw.Write([]string{"eligible", "vod_only_frac", "live_only_frac", "fully_segregated"})
		cw.Write([]string{
			strconv.Itoa(st.EligiblePublishers),
			fmtF(st.VoDOnlyFrac), fmtF(st.LiveOnlyFrac),
			strconv.Itoa(st.FullySegregated),
		})
	case "crosstab":
		ct := s.ProtocolPlatformCross()
		cw.Write([]string{"platform", "protocol", "view_hours", "row_share"})
		for _, row := range ct.RowKeys {
			for _, col := range ct.ColKeys {
				cw.Write([]string{row, col, fmtF(ct.At(row, col)), fmtF(ct.RowShare(row, col))})
			}
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
		cw.Write([]string{"publisher", "daily_vh", "metric_value"})
		for _, p := range c.Points {
			cw.Write([]string{p.Publisher, fmtF(p.DailyVH), fmtF(p.Value)})
		}
	case "14":
		points, _ := s.Fig14()
		cw.Write([]string{"owner", "pct_of_syndicators"})
		for _, p := range points {
			cw.Write([]string{p.Owner, fmtF(p.Percent)})
		}
	case "15", "16":
		comps, err := s.Fig15and16()
		if err != nil {
			return err
		}
		cw.Write([]string{"isp", "cdn", "publisher", "median_kbps", "p90_rebuf_pct"})
		for _, c := range comps {
			cw.Write([]string{c.ISP, c.CDN, "owner", fmtF(c.Owner.MedianKbps), fmtF(c.Owner.P90RebufPct)})
			cw.Write([]string{c.ISP, c.CDN, "syndicator", fmtF(c.Syndicator.MedianKbps), fmtF(c.Syndicator.P90RebufPct)})
		}
	case "17":
		rows, err := s.Fig17()
		if err != nil {
			return err
		}
		cw.Write([]string{"publisher", "rung", "bitrate_kbps"})
		for _, r := range rows {
			for i, kbps := range r.Bitrates {
				cw.Write([]string{r.Publisher, strconv.Itoa(i), strconv.Itoa(kbps)})
			}
		}
	case "18":
		exp, err := s.Fig18()
		if err != nil {
			return err
		}
		cw.Write([]string{"cdn", "total_tb", "tol5_tb", "tol5_pct", "tol10_tb", "tol10_pct", "integrated_tb", "integrated_pct"})
		for _, r := range exp.Reports {
			rep := r.Report
			cw.Write([]string{
				r.CDN,
				fmtF(float64(rep.TotalBytes) / 1e12),
				fmtF(float64(rep.Tol5) / 1e12), fmtF(rep.Tol5Pct),
				fmtF(float64(rep.Tol10) / 1e12), fmtF(rep.Tol10Pct),
				fmtF(float64(rep.Integrated) / 1e12), fmtF(rep.IntegratedPct),
			})
		}
	default:
		return fmt.Errorf("core: no CSV export for figure %q", id)
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func timeSeriesCSV(cw *csv.Writer, ts *analytics.TimeSeries) error {
	header := append([]string{"key"}, ts.Snapshots...)
	cw.Write(header)
	for _, k := range ts.Keys {
		row := make([]string, 0, len(ts.Snapshots)+1)
		row = append(row, k)
		for _, v := range ts.Series[k] {
			row = append(row, fmtF(v))
		}
		cw.Write(row)
	}
	cw.Flush()
	return cw.Error()
}

func histogramCSV(cw *csv.Writer, h *analytics.Histogram) error {
	cw.Write([]string{"instances", "pct_publishers", "pct_view_hours"})
	for i, n := range h.Counts {
		cw.Write([]string{strconv.Itoa(n), fmtF(h.PubPct[i]), fmtF(h.VHPct[i])})
	}
	cw.Flush()
	return cw.Error()
}

func bucketsCSV(cw *csv.Writer, bb *analytics.BucketBreakdown) error {
	cw.Write([]string{"bucket", "instances", "pct_of_all_publishers"})
	for b, cell := range bb.Buckets {
		counts := make([]int, 0, len(cell))
		for n := range cell {
			counts = append(counts, n)
		}
		sort.Ints(counts)
		for _, n := range counts {
			cw.Write([]string{strconv.Itoa(b), strconv.Itoa(n), fmtF(cell[n])})
		}
	}
	cw.Flush()
	return cw.Error()
}

func averagesCSV(cw *csv.Writer, a *analytics.AveragesSeries) error {
	cw.Write([]string{"snapshot", "mean", "vh_weighted_mean"})
	for i, snap := range a.Snapshots {
		cw.Write([]string{snap, fmtF(a.Mean[i]), fmtF(a.Weighted[i])})
	}
	cw.Flush()
	return cw.Error()
}

func cdfMapCSV(cw *csv.Writer, cdfs map[string]analytics.CDF) error {
	cw.Write([]string{"key", "x", "p"})
	keys := make([]string, 0, len(cdfs))
	for k := range cdfs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cdf := cdfs[k]
		for i := range cdf.X {
			cw.Write([]string{k, fmtF(cdf.X[i]), fmtF(cdf.P[i])})
		}
	}
	cw.Flush()
	return cw.Error()
}
