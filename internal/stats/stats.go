// Package stats implements the statistical machinery the paper's
// analyses rely on: empirical CDFs and quantiles (Figs 4, 8, 14, 15,
// 16), weighted and unweighted means (Figs 3c, 9c, 12c), and ordinary
// least-squares regression on log-log data with slope significance
// tests (Fig 13, which reports per-decade growth factors with p-values
// below 1e-9).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator is given fewer
// points than it needs.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedMean returns sum(w*x)/sum(w). It panics on length mismatch and
// returns 0 when the total weight is zero.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample. An empty sample yields an ECDF
// that evaluates to 0 everywhere and has no quantiles.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) using nearest-rank. It
// returns an error for an empty sample or q outside [0, 1].
func (e *ECDF) Quantile(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrInsufficientData
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	if q == 0 {
		return e.sorted[0], nil
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx], nil
}

// MustQuantile is Quantile for samples known to be non-empty; it panics
// on error, signalling programmer error at the call site.
func (e *ECDF) MustQuantile(q float64) float64 {
	v, err := e.Quantile(q)
	if err != nil {
		panic(err)
	}
	return v
}

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF, one
// per distinct sample value.
func (e *ECDF) Points() (xs, ps []float64) {
	n := len(e.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && e.sorted[j] == e.sorted[i] {
			j++
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(j)/float64(n))
		i = j
	}
	return xs, ps
}

// WeightedECDF is an empirical CDF over a weighted sample: each value
// carries a mass (e.g. the number of real views a sampled record
// represents).
type WeightedECDF struct {
	xs   []float64
	cum  []float64 // cumulative mass up to and including xs[i]
	mass float64
}

// NewWeightedECDF builds the weighted CDF; non-positive weights are
// dropped. It panics on length mismatch.
func NewWeightedECDF(values, weights []float64) *WeightedECDF {
	if len(values) != len(weights) {
		panic("stats: NewWeightedECDF length mismatch")
	}
	type vw struct{ v, w float64 }
	pairs := make([]vw, 0, len(values))
	for i, v := range values {
		if weights[i] > 0 {
			pairs = append(pairs, vw{v, weights[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	e := &WeightedECDF{}
	for _, p := range pairs {
		e.mass += p.w
		if n := len(e.xs); n > 0 && e.xs[n-1] == p.v {
			e.cum[n-1] = e.mass
			continue
		}
		e.xs = append(e.xs, p.v)
		e.cum = append(e.cum, e.mass)
	}
	return e
}

// Points returns the plottable (x, P(X<=x)) step points.
func (e *WeightedECDF) Points() (xs, ps []float64) {
	xs = append(xs, e.xs...)
	for _, c := range e.cum {
		ps = append(ps, c/e.mass)
	}
	return xs, ps
}

// Regression is the result of an ordinary least-squares fit y = a + b*x.
type Regression struct {
	Slope     float64 // b
	Intercept float64 // a
	R2        float64 // coefficient of determination
	StdErr    float64 // standard error of the slope
	TStat     float64 // slope / StdErr
	PValue    float64 // two-sided p-value for H0: slope = 0
	N         int     // number of points
}

// LinearFit fits y = a + b*x by OLS and computes the two-sided p-value
// of the slope against the null of zero slope using the exact Student-t
// distribution. It requires at least three points (for a meaningful
// residual degree of freedom).
func LinearFit(xs, ys []float64) (Regression, error) {
	if len(xs) != len(ys) {
		panic("stats: LinearFit length mismatch")
	}
	n := len(xs)
	if n < 3 {
		return Regression{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{}, errors.New("stats: degenerate x values")
	}
	b := sxy / sxx
	a := my - b*mx
	// Residual sum of squares.
	rss := 0.0
	for i := range xs {
		r := ys[i] - (a + b*xs[i])
		rss += r * r
	}
	r2 := 1.0
	if syy > 0 {
		r2 = 1 - rss/syy
	}
	df := float64(n - 2)
	se := math.Sqrt((rss / df) / sxx)
	reg := Regression{Slope: b, Intercept: a, R2: r2, StdErr: se, N: n}
	if se > 0 {
		reg.TStat = b / se
		reg.PValue = 2 * studentTSF(math.Abs(reg.TStat), df)
	} else {
		// Perfect fit: infinitely significant.
		reg.TStat = math.Inf(sign(b))
		reg.PValue = 0
	}
	return reg, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// LogLogFit fits log10(y) = a + b*log10(x), dropping non-positive
// points (which have no logarithm and, in our analyses, correspond to
// publishers with no activity in the snapshot).
func LogLogFit(xs, ys []float64) (Regression, error) {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log10(xs[i]))
			ly = append(ly, math.Log10(ys[i]))
		}
	}
	return LinearFit(lx, ly)
}

// PerDecadeFactor converts a log-log slope into the multiplicative
// growth of y when x grows by 10x — the form the paper reports ("a
// publisher with 10x as many view-hours will tend to maintain 1.8x as
// many versions...").
func PerDecadeFactor(slope float64) float64 {
	return math.Pow(10, slope)
}

// Pearson returns the Pearson correlation coefficient of the two
// samples, or an error for fewer than two points or zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation of the two samples: a
// robustness check alongside the log-log OLS fits, insensitive to the
// heavy tails publisher view-hours exhibit. Ties receive their average
// rank.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks maps sample values to average ranks (1-based).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie run [i, j).
		avg := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// studentTSF returns P(T > t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) using the continued-fraction expansion (Numerical Recipes
// style, reimplemented from the mathematical definition).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
