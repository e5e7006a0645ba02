// Package dist provides the deterministic randomness substrate for the
// reproduction: a splittable pseudo-random source addressed by string
// labels, plus the distribution families the ecosystem generator and the
// network model draw from (power laws, log-normals, categorical mixes,
// linear trends).
//
// Everything in the library derives its randomness from a single root
// seed through labelled splits, so a given (seed, label path) always
// yields the same stream regardless of evaluation order. That property
// is what makes every figure in EXPERIMENTS.md bit-reproducible.
package dist

import "math"

// Source is a deterministic pseudo-random stream. It implements a
// SplitMix64-style generator: tiny state, good equidistribution, and
// cheap label-based splitting. The zero value is a valid stream seeded
// with zero.
type Source struct {
	seed  uint64 // immutable; the basis for Split
	state uint64 // advances with each draw
}

// NewSource returns a stream seeded with seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed, state: seed} }

// Split derives an independent child stream from the parent's seed and a
// label. Splitting does not advance the parent, and children are derived
// from the parent's original seed, so the set of children is stable no
// matter how many values the parent has produced.
func (s *Source) Split(label string) *Source {
	child := mix(s.seed ^ fnvString(fnvOffset, label))
	return &Source{seed: child, state: child}
}

// Splitf is Split for integer-indexed children, avoiding the cost and
// allocation of formatting labels at call sites. The child's label is
// the label's bytes followed by i's eight little-endian bytes.
//
// Splitf stays small enough to inline, so a caller that keeps the
// child to itself holds it on its stack: the hashing is in splitfSeed.
func (s *Source) Splitf(label string, i int) *Source {
	child := splitfSeed(s.seed, label, i)
	return &Source{seed: child, state: child}
}

func splitfSeed(seed uint64, label string, i int) uint64 {
	return mix(seed ^ fnvUint64(fnvString(fnvOffset, label), uint64(i)))
}

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvUint64 folds v's eight little-endian bytes into the FNV-1a hash h.
func fnvUint64(h, v uint64) uint64 {
	for b := 0; b < 64; b += 8 {
		h = (h ^ (v >> b & 0xff)) * fnvPrime
	}
	return h
}

// fnvString folds label's bytes into the FNV-1a hash h.
func fnvString(h uint64, label string) uint64 {
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime
	}
	return h
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Norm returns a standard normal variate via the Box-Muller transform.
func (s *Source) Norm() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Categorical draws an index from a discrete distribution given by
// non-negative weights. Zero-total weights panic: the caller has
// constructed an impossible choice.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dist: negative categorical weight")
		}
		total += w
	}
	if total == 0 {
		panic("dist: zero-total categorical weights")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^exponent. Used for video popularity within catalogues.
type Zipf struct {
	cum []float64
}

// NewZipf precomputes the cumulative mass for n ranks with the given
// exponent. It panics if n <= 0.
func NewZipf(n int, exponent float64) *Zipf {
	if n <= 0 {
		panic("dist: Zipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), exponent)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}
}

// Draw samples a rank using randomness from s.
func (z *Zipf) Draw(s *Source) int {
	x := s.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Linear evaluates the straight-line trend from v0 at t=0 to v1 at t=1,
// clamping t into [0, 1].
func Linear(t, v0, v1 float64) float64 {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return v0 + (v1-v0)*t
}
