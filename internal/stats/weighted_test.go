package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vmp/internal/dist"
)

func TestWeightedECDFBasics(t *testing.T) {
	e := NewWeightedECDF([]float64{1, 2, 3}, []float64{1, 3, 1})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {2, 0.8}, {2.5, 0.8}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q, _ := e.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2 (the heavy value)", q)
	}
	if q, _ := e.Quantile(0.9); q != 3 {
		t.Errorf("Quantile(0.9) = %v, want 3", q)
	}
}

func TestWeightedECDFDuplicatesMerge(t *testing.T) {
	e := NewWeightedECDF([]float64{2, 2, 1}, []float64{1, 1, 2})
	xs, ps := e.Points()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("Points xs = %v", xs)
	}
	if math.Abs(ps[0]-0.5) > 1e-12 || ps[1] != 1 {
		t.Fatalf("Points ps = %v", ps)
	}
}

func TestWeightedECDFDropsNonPositive(t *testing.T) {
	e := NewWeightedECDF([]float64{1, 2, 3}, []float64{1, 0, -4})
	if xs, ps := e.Points(); len(xs) != 1 || xs[0] != 1 || ps[0] != 1 {
		t.Fatalf("Points = %v, %v; want all the mass at 1 (zero/negative weights dropped)", xs, ps)
	}
}

func TestWeightedECDFErrors(t *testing.T) {
	empty := NewWeightedECDF(nil, nil)
	if empty.At(1) != 0 {
		t.Error("empty CDF should evaluate to 0")
	}
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty quantile should error")
	}
	e := NewWeightedECDF([]float64{1}, []float64{1})
	if _, err := e.Quantile(2); err == nil {
		t.Error("out-of-range q should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	NewWeightedECDF([]float64{1}, []float64{1, 2})
}

// Property: with unit weights the weighted CDF agrees with ECDF.
func TestWeightedMatchesUnweightedProperty(t *testing.T) {
	src := dist.NewSource(77)
	f := func(n uint8) bool {
		m := int(n%40) + 1
		vals := make([]float64, m)
		ones := make([]float64, m)
		for i := range vals {
			vals[i] = math.Round(src.Float64()*10) / 2 // coarse grid → ties
			ones[i] = 1
		}
		w := NewWeightedECDF(vals, ones)
		u := NewECDF(vals)
		for _, x := range []float64{-1, 0, 1, 2.5, 5, 11} {
			if math.Abs(w.At(x)-u.At(x)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestWeightedQuantileMonotoneProperty(t *testing.T) {
	src := dist.NewSource(88)
	f := func(n uint8) bool {
		m := int(n%30) + 2
		vals := make([]float64, m)
		ws := make([]float64, m)
		for i := range vals {
			vals[i] = src.Float64() * 100
			ws[i] = src.Float64()*10 + 0.1
		}
		e := NewWeightedECDF(vals, ws)
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v, err := e.Quantile(q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
