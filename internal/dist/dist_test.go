package dist

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	// Advance a but not b; splits must still agree.
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	ca, cb := a.Split("child"), b.Split("child")
	for i := 0; i < 50; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split depends on parent stream position")
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	s := NewSource(1)
	if s.Split("a").Uint64() == s.Split("b").Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
	if s.Splitf("a", 0).Uint64() == s.Splitf("a", 1).Uint64() {
		t.Fatal("different indices produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSource(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSource(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := NewSource(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := NewSource(13)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.LogNormal(2, 0.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu).
	below := 0
	target := math.Exp(2)
	for _, x := range xs {
		if x < target {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	s := NewSource(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(3.5)
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~3.5", mean)
	}
}

func TestCategorical(t *testing.T) {
	s := NewSource(23)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[s.Categorical([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"zero-total": {0, 0},
		"negative":   {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights should panic", name)
				}
			}()
			NewSource(1).Categorical(weights)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.0)
	s := NewSource(29)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[50] {
		t.Fatalf("Zipf counts not decreasing: c0=%d c10=%d c50=%d",
			counts[0], counts[10], counts[50])
	}
	// Rank 0 should get roughly 1/H(100) ≈ 19% of the mass for exponent 1.
	frac0 := float64(counts[0]) / n
	if frac0 < 0.15 || frac0 > 0.25 {
		t.Fatalf("Zipf rank-0 mass = %v, want ~0.19", frac0)
	}
}

func TestBool(t *testing.T) {
	s := NewSource(45)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) fired %v of the time", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) fired")
	}
	if !s.Bool(1.5) {
		t.Error("Bool(>1) should always fire")
	}
}

func TestZipfDrawInRange(t *testing.T) {
	z := NewZipf(5, 0.8)
	s := NewSource(31)
	for i := 0; i < 10000; i++ {
		if r := z.Draw(s); r < 0 || r >= 5 {
			t.Fatalf("Zipf.Draw = %d out of range", r)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, ·) should panic")
		}
	}()
	NewZipf(0, 1)
}

func TestPerm(t *testing.T) {
	s := NewSource(37)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestLinearClamps(t *testing.T) {
	if v := Linear(-1, 2, 4); v != 2 {
		t.Errorf("Linear(-1) = %v, want 2", v)
	}
	if v := Linear(2, 2, 4); v != 4 {
		t.Errorf("Linear(2) = %v, want 4", v)
	}
	if v := Linear(0.5, 2, 4); v != 3 {
		t.Errorf("Linear(0.5) = %v, want 3", v)
	}
}

// Property: Uniform(lo, hi) always lands in [lo, hi) for lo < hi.
func TestUniformProperty(t *testing.T) {
	s := NewSource(41)
	f := func(a, b float64, n uint8) bool {
		lo, hi := a, b
		if !(lo < hi) || math.IsNaN(lo) || math.IsInf(hi-lo, 0) {
			return true // skip degenerate inputs
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Categorical with a single positive weight always returns 0.
func TestCategoricalSingletonProperty(t *testing.T) {
	s := NewSource(43)
	f := func(w float64) bool {
		if !(w > 0) || math.IsInf(w, 0) {
			return true
		}
		return s.Categorical([]float64{w}) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMatchesHashFNV pins the inline FNV-1a of Split and Splitf to
// the hash/fnv computation they replaced: a different hash would move
// every generated record.
func TestSplitMatchesHashFNV(t *testing.T) {
	refChild := func(seed uint64, label []byte) uint64 {
		h := fnv.New64a()
		h.Write(label)
		return mix(seed ^ h.Sum64())
	}
	s := NewSource(1809)
	for _, label := range []string{"", "view", "sample-P001-2016-01-05", "géo-√", "\xff\x00"} {
		if got, want := s.Split(label).seed, refChild(s.seed, []byte(label)); got != want {
			t.Errorf("Split(%q) seed %#x, hash/fnv gives %#x", label, got, want)
		}
		for _, i := range []int{0, -1, 1 << 40} {
			buf := []byte(label)
			for b := 0; b < 8; b++ {
				buf = append(buf, byte(uint64(i)>>(8*b)))
			}
			if got, want := s.Splitf(label, i).seed, refChild(s.seed, buf); got != want {
				t.Errorf("Splitf(%q, %d) seed %#x, hash/fnv gives %#x", label, i, got, want)
			}
		}
	}
}

// TestSplitDoesNotAllocate pins Split and Splitf as inlinable: a child
// that does not escape its caller lives on the caller's stack. The
// generator splits once per view and once per device draw.
func TestSplitDoesNotAllocate(t *testing.T) {
	src := NewSource(3)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += src.Split("x").Uint64() }); n != 0 {
		t.Fatalf("Split allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += src.Splitf("view", int(sink)).Uint64() }); n != 0 {
		t.Fatalf("Splitf allocates %.1f times per call", n)
	}
	_ = sink
}
