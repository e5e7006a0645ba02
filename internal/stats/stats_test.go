package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"vmp/internal/dist"
)

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 10}, []float64{9, 1})
	if math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("WeightedMean = %v, want 1.9", got)
	}
	if WeightedMean([]float64{5}, []float64{0}) != 0 {
		t.Fatal("zero total weight should yield 0")
	}
}

func TestWeightedMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF should evaluate to 0")
	}
	if _, err := e.Quantile(0.5); err == nil {
		t.Fatal("Quantile on empty ECDF should error")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40},
	}
	for _, c := range cases {
		got, err := e.Quantile(c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := e.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) should error")
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{3, 1, 3, 2})
	xs, ps := e.Points()
	wantX := []float64{1, 2, 3}
	wantP := []float64{0.25, 0.5, 1}
	if len(xs) != 3 {
		t.Fatalf("Points returned %d xs", len(xs))
	}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(ps[i]-wantP[i]) > 1e-12 {
			t.Errorf("point %d = (%v,%v), want (%v,%v)", i, xs[i], ps[i], wantX[i], wantP[i])
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if e.At(3) != 1 {
		t.Fatal("ECDF aliased its input slice")
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3 + 2x exactly.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{5, 7, 9, 11, 13}
	reg, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Slope-2) > 1e-12 || math.Abs(reg.Intercept-3) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 3", reg)
	}
	if reg.R2 < 0.999999 {
		t.Fatalf("R2 = %v, want ~1", reg.R2)
	}
	if reg.PValue > 1e-12 {
		t.Fatalf("perfect fit p-value = %v, want ~0", reg.PValue)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	s := dist.NewSource(99)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 1.5*x+4+0.5*s.Norm())
	}
	reg, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Slope-1.5) > 0.05 {
		t.Fatalf("slope = %v, want ~1.5", reg.Slope)
	}
	if reg.PValue > 1e-9 {
		t.Fatalf("p-value = %v, want < 1e-9 for strong signal", reg.PValue)
	}
}

func TestLinearFitNullSlope(t *testing.T) {
	// Pure noise: p-value should usually be large.
	s := dist.NewSource(7)
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, s.Norm())
	}
	reg, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if reg.PValue < 0.001 {
		t.Fatalf("noise fit p-value = %v, suspiciously small", reg.PValue)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("two points should be insufficient")
	}
	if _, err := LinearFit([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestLogLogFit(t *testing.T) {
	// y = 2 * x^0.25 => log10 y = log10 2 + 0.25 log10 x.
	var xs, ys []float64
	for _, x := range []float64{1, 10, 100, 1000, 10000} {
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 0.25))
	}
	// Include a non-positive point that must be dropped.
	xs = append(xs, 0)
	ys = append(ys, 5)
	reg, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Slope-0.25) > 1e-9 {
		t.Fatalf("log-log slope = %v, want 0.25", reg.Slope)
	}
	if f := PerDecadeFactor(reg.Slope); math.Abs(f-math.Pow(10, 0.25)) > 1e-9 {
		t.Fatalf("PerDecadeFactor = %v", f)
	}
	if reg.N != 5 {
		t.Fatalf("fit used %d points, want 5 (non-positive dropped)", reg.N)
	}
}

func TestPerDecadeFactorKnownValues(t *testing.T) {
	// The paper reports 1.72x, 3.8x, 1.8x per decade; check the mapping.
	for _, c := range []struct{ slope, factor float64 }{
		{math.Log10(1.72), 1.72},
		{math.Log10(3.8), 3.8},
		{math.Log10(1.8), 1.8},
	} {
		if got := PerDecadeFactor(c.slope); math.Abs(got-c.factor) > 1e-9 {
			t.Errorf("PerDecadeFactor(%v) = %v, want %v", c.slope, got, c.factor)
		}
	}
}

func TestMustQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuantile on empty ECDF should panic")
		}
	}()
	NewECDF(nil).MustQuantile(0.5)
}

func TestLinearFitPerfectNegativeSlope(t *testing.T) {
	reg, err := LinearFit([]float64{1, 2, 3, 4}, []float64{8, 6, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Slope != -2 {
		t.Fatalf("slope = %v, want -2", reg.Slope)
	}
	if !math.IsInf(reg.TStat, -1) {
		t.Fatalf("perfect negative fit t-stat = %v, want -Inf", reg.TStat)
	}
	if reg.PValue != 0 {
		t.Fatalf("p = %v, want 0", reg.PValue)
	}
}

func TestStudentTNonPositive(t *testing.T) {
	if p := studentTSF(0, 10); p != 0.5 {
		t.Fatalf("P(T>0) = %v, want 0.5", p)
	}
	if p := studentTSF(-2, 10); p != 0.5 {
		t.Fatalf("negative t should clamp to 0.5, got %v", p)
	}
}

func TestPearson(t *testing.T) {
	r, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v; want 1", r, err)
	}
	r, err = Pearson([]float64{1, 2, 3}, []float64{6, 4, 2})
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v; want -1", r, err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero x variance should error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
}

func TestSpearman(t *testing.T) {
	// A monotone nonlinear relation: Pearson < 1, Spearman = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("Spearman = %v, %v; want 1", rho, err)
	}
	rho, err = Spearman(xs, []float64{5, 4, 3, 2, 1})
	if err != nil || math.Abs(rho+1) > 1e-12 {
		t.Fatalf("Spearman = %v; want -1", rho)
	}
	if _, err := Spearman([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
}

func TestSpearmanTies(t *testing.T) {
	// Ties get average ranks; a tied-but-monotone relation stays
	// strongly positive.
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	rho, err := Spearman(xs, ys)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("tied Spearman = %v, want 1", rho)
	}
	r := ranks([]float64{5, 1, 1, 9})
	want := []float64{3, 1.5, 1.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestStudentTAgainstKnownValues(t *testing.T) {
	// Two-sided p for |t|=2.0 with df=10 is about 0.0734.
	p := 2 * studentTSF(2.0, 10)
	if math.Abs(p-0.0734) > 0.002 {
		t.Fatalf("p(|t|=2, df=10) = %v, want ~0.0734", p)
	}
	// df=1 (Cauchy): P(T > 1) = 0.25.
	if p := studentTSF(1, 1); math.Abs(p-0.25) > 1e-6 {
		t.Fatalf("P(T>1, df=1) = %v, want 0.25", p)
	}
	// Large df approaches the normal tail: P(Z > 1.96) ≈ 0.025.
	if p := studentTSF(1.96, 10000); math.Abs(p-0.025) > 0.001 {
		t.Fatalf("P(T>1.96, df=1e4) = %v, want ~0.025", p)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if v := regIncBeta(2, 3, 0); v != 0 {
		t.Errorf("I_0 = %v", v)
	}
	if v := regIncBeta(2, 3, 1); v != 1 {
		t.Errorf("I_1 = %v", v)
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if v := regIncBeta(1, 1, x); math.Abs(v-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, v)
		}
	}
}

// Property: ECDF.At is monotone non-decreasing.
func TestECDFMonotoneProperty(t *testing.T) {
	s := dist.NewSource(55)
	f := func(seed uint16, n uint8) bool {
		src := s.Splitf("case", int(seed))
		m := int(n%50) + 1
		sample := make([]float64, m)
		for i := range sample {
			sample[i] = src.Norm()
		}
		e := NewECDF(sample)
		prev := -1.0
		for _, x := range []float64{-3, -1, 0, 0.5, 1, 3} {
			v := e.At(x)
			if v < prev {
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

// Property: quantiles are ordered and drawn from the sample.
func TestQuantileOrderProperty(t *testing.T) {
	s := dist.NewSource(66)
	f := func(seed uint16, n uint8) bool {
		src := s.Splitf("q", int(seed))
		m := int(n%40) + 2
		sample := make([]float64, m)
		for i := range sample {
			sample[i] = src.Float64() * 100
		}
		e := NewECDF(sample)
		q25 := e.MustQuantile(0.25)
		q50 := e.MustQuantile(0.50)
		q90 := e.MustQuantile(0.90)
		if !(q25 <= q50 && q50 <= q90) {
			return false
		}
		sort.Float64s(sample)
		idx := sort.SearchFloat64s(sample, q50)
		return idx < len(sample) && sample[idx] == q50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
