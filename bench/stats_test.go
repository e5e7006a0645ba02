package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.5, 5},   // ceil(0.5·10) = 5th value
		{0.51, 6},  // ceil(5.1) = 6th
		{0.9, 9},   // ceil(9) = 9th
		{0.95, 10}, // ceil(9.5) = 10th
		{0.01, 1},
		{1, 10},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

// A percentile is reportable only with at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},     // nothing has ten samples beyond: fall back to the median
		{20, 0.5},    // p50 leaves exactly 10 beyond
		{100, 0.90},  // p90 leaves 10; p95 leaves 5
		{199, 0.90},  // p95 leaves 199 − 190 = 9
		{200, 0.95},  // p95 leaves 10
		{999, 0.95},  // p99 leaves 999 − 990 = 9
		{1000, 0.99}, // p99 leaves 10
		{10000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is what the benchmark driver computes run-to-run spread with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v, %v; Python gives 10, 40", q1, q3)
	}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Errorf("iqrShare of one run = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "client.records_per_s", Better: "higher", Bound: 0.10}
	steadyA := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steadyA, []float64{100.2, 99.8, 100, 101, 100}, "ok"},
		{"slower within bound", lower, steadyA, []float64{108, 109, 107, 108, 108}, "ok"},
		{"slower beyond bound", lower, steadyA, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster", lower, steadyA, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput fell", higher, steadyA, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput rose", higher, steadyA, []float64{120, 121, 119, 120, 120}, "ok"},
		{"noisy", lower, steadyA, []float64{60, 100, 140, 90, 180}, "unresolved"},
		{"noisy but every run better", lower, steadyA, []float64{20, 40, 60, 30, 80}, "ok"},
	} {
		if _, _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
