package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads the untraced result files at path: one file, or
// every *.json in a directory. It returns the end-to-end values by
// workload and metric, one per run.
func loadResults(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if res.Trace || res.Workload == "" {
			continue
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d operations failed; a run with failures is not a measurement", f, res.Failed, res.Attempted)
		}
		if out[res.Workload] == nil {
			out[res.Workload] = make(map[string][]float64)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; ok {
				out[res.Workload][d.Name] = append(out[res.Workload][d.Name], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", path)
	}
	return out, nil
}

// verdict judges one metric on one workload. worse is how much worse
// B's median is than A's as a share of A's (negative = better).
//
//	unresolved: either side's quartile spread is wider than the bound,
//	            unless every run of B reads better than every run of A
//	regressed:  B's median is worse than A's by more than the bound
//	ok:         otherwise
func verdict(d metricDef, a, b []float64) (medA, medB, worse, spread float64, status string) {
	sa, sb := sortedCopy(a), sortedCopy(b)
	medA, medB = midMedian(sa), midMedian(sb)
	if medA != 0 {
		worse = (medB - medA) / medA
	}
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		worse = -worse
		allBetter = sb[0] > sa[len(sa)-1]
	}
	spread = max(iqrShare(a), iqrShare(b))
	switch {
	case spread > d.Bound && !allBetter:
		status = "unresolved"
	case worse > d.Bound:
		status = "regressed"
	default:
		status = "ok"
	}
	return medA, medB, worse, spread, status
}

// compareResults prints, per workload and end-to-end metric, both
// medians, how much worse B is, the run-to-run spread, the bound and
// the verdict. It returns 1 if anything regressed.
func compareResults(pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2]map[string]map[string][]float64
	for i, path := range []string{pathA, pathB} {
		var err error
		if sides[i], err = loadResults(path); err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
	}
	return printComparison(sides[0], sides[1], stdout)
}

func printComparison(a, b map[string]map[string][]float64, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worse, spread, status := verdict(d, va, vb)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d/%d)\n",
				wl.Name, d.Name, medA, medB, 100*worse, 100*spread, 100*d.Bound, status, len(va), len(vb))
		}
	}
	fmt.Fprintln(w, strings.TrimSpace(`
worse: how much worse B's median is than A's, as a share of A's (negative = better).
spread: the wider of the two sides' quartile distances, as a share of the median.`))
	return code
}
