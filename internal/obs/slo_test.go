package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuantileInterpolation pins the estimator against a distribution
// whose quantiles are computable by hand: 100 observations spread
// uniformly through the (0,1] bucket interpolate linearly across it.
func TestQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	s := h.Snapshot()
	// All mass in the first bucket (lower edge 0, upper 1): the q-th
	// quantile is simply q.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50}, {0.90, 0.90}, {0.99, 0.99}, {1.0, 1.0},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Clamping: out-of-range probes behave as 0 and 1.
	if got := s.Quantile(-3); got != s.Quantile(0) {
		t.Fatalf("Quantile(-3) = %v, want clamp to Quantile(0)", got)
	}
	if got := s.Quantile(7); got != s.Quantile(1) {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1)", got)
	}
}

// TestQuantileAcrossBuckets spreads mass over two buckets and checks
// the rank lands in the right one before interpolating.
func TestQuantileAcrossBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // bucket (0,1]
	}
	for i := 0; i < 50; i++ {
		h.Observe(1.5) // bucket (1,2]
	}
	s := h.Snapshot()
	// p25 is halfway through the first bucket's 50 observations.
	if got := s.Quantile(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p25 = %v, want 0.5", got)
	}
	// p75 is halfway through the second bucket: 1 + (2-1)*0.5.
	if got := s.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p75 = %v, want 1.5", got)
	}
}

// TestQuantileEmpty pins the empty-histogram contract: 0, and no
// Quantiles map in the snapshot.
func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile(0.99) = %v, want 0", got)
	}
	if s.Quantiles != nil {
		t.Fatalf("empty snapshot exported quantiles: %v", s.Quantiles)
	}
}

// TestQuantileSingleBucket: with one bound and all mass under it, every
// quantile interpolates within [0, bound].
func TestQuantileSingleBucket(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(3)
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		// One observation: rank 0.5 interpolates to the bucket midpoint.
		t.Fatalf("single-bucket p50 = %v, want 5", got)
	}
}

// TestQuantileAllOverflow pins the tail contract: when the rank lands
// in the overflow bucket the estimator reports the highest finite
// bound instead of inventing a value it never measured.
func TestQuantileAllOverflow(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	for i := 0; i < 10; i++ {
		h.Observe(99)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.999} {
		if got := s.Quantile(q); got != 0.01 {
			t.Fatalf("all-overflow Quantile(%v) = %v, want 0.01", q, got)
		}
	}
}

// TestSnapshotExportsProbes checks a non-empty snapshot carries all
// four SLO probes.
func TestSnapshotExportsProbes(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	s := h.Snapshot()
	for _, name := range []string{"p50", "p90", "p99", "p999"} {
		if _, ok := s.Quantiles[name]; !ok {
			t.Fatalf("snapshot missing probe %s: %v", name, s.Quantiles)
		}
	}
}

// TestHistogramReboundsPanic pins the satellite fix: re-registering a
// histogram under the same name with different bounds must fail loudly
// instead of silently handing back the first registration.
func TestHistogramReboundsPanic(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", []float64{0.1, 1})
	// Same bounds: idempotent get-or-create, same instance.
	a := r.Histogram("lat", []float64{0.1, 1})
	b := r.Histogram("lat", []float64{0.1, 1})
	if a != b {
		t.Fatal("same-bounds re-registration returned a different histogram")
	}
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("different-bounds re-registration did not panic")
		}
		if !strings.Contains(msg, "lat") {
			t.Fatalf("panic message %q does not name the histogram", msg)
		}
	}()
	r.Histogram("lat", []float64{0.5, 5})
}

// TestStopwatchMeasures drives a stopwatch on the manual clock and
// checks both the return value and the observation.
func TestStopwatchMeasures(t *testing.T) {
	clk := testClock() // auto-advances 1ms per Now()
	h := NewHistogram([]float64{0.0005, 0.01})
	w := StartWatch(clk)
	d := w.Stop(h)
	if d != time.Millisecond {
		t.Fatalf("measured %v, want 1ms", d)
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Counts[1] != 1 {
		t.Fatalf("observation landed wrong: %+v", s)
	}
	// Nil histogram: measured but not observed.
	if d := StartWatch(clk).Stop(nil); d != time.Millisecond {
		t.Fatalf("nil-histogram Stop = %v, want 1ms", d)
	}
}

// TestStopwatchDisabled pins the disabled contract: a nil clock makes
// Start and Stop no-ops that read no clock and observe nothing.
func TestStopwatchDisabled(t *testing.T) {
	h := NewHistogram([]float64{1})
	if d := StartWatch(nil).Stop(h); d != 0 {
		t.Fatalf("disabled Stop = %v, want 0", d)
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("disabled stopwatch observed: %+v", s)
	}
}

// TestStopwatchZeroAlloc pins the hot-path budget: neither the enabled
// nor the disabled stopwatch may allocate.
func TestStopwatchZeroAlloc(t *testing.T) {
	clk := testClock()
	h := NewHistogram([]float64{0.001, 1})
	if allocs := testing.AllocsPerRun(1000, func() {
		StartWatch(clk).Stop(h)
	}); allocs != 0 {
		t.Fatalf("enabled stopwatch allocated %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		StartWatch(nil).Stop(h)
	}); allocs != 0 {
		t.Fatalf("disabled stopwatch allocated %.1f per op, want 0", allocs)
	}
	var c Counter
	var g Gauge
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
	}); allocs != 0 {
		t.Fatalf("counter and gauge updates allocated %.1f per op, want 0", allocs)
	}
}
