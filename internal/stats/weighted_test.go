package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vmp/internal/dist"
)

func TestWeightedECDFBasics(t *testing.T) {
	xs, ps := NewWeightedECDF([]float64{3, 1, 2}, []float64{1, 1, 3}).Points()
	want := []float64{0.2, 0.8, 1}
	if len(xs) != 3 || xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Fatalf("Points xs = %v, want 1, 2, 3", xs)
	}
	for i, p := range ps {
		if math.Abs(p-want[i]) > 1e-12 {
			t.Errorf("P(X <= %v) = %v, want %v", xs[i], p, want[i])
		}
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
	if xs, ps := NewWeightedECDF(nil, nil).Points(); len(xs) != 0 || len(ps) != 0 {
		t.Errorf("empty CDF has points %v, %v", xs, ps)
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
		wx, wp := NewWeightedECDF(vals, ones).Points()
		ux, up := NewECDF(vals).Points()
		if len(wx) != len(ux) {
			return false
		}
		for i := range wx {
			if wx[i] != ux[i] || math.Abs(wp[i]-up[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
