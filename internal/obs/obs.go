// Package obs is the serving plane's observability substrate: atomic
// counters, gauges, and fixed-bucket histograms behind a named
// registry (this file), plus a batch-scoped tracing layer — spans
// with parent links in a bounded lock-free ring (trace.go) — exposed
// as deterministic JSON (map keys serialize sorted) on shared HTTP
// handlers (obs.Mount). It is deliberately tiny — the operational
// counterpart of the study's figure suite, not a metrics framework —
// and everything here is safe for concurrent use on the ingest hot
// path: Observe, Add, Start and End are lock-free, reading a snapshot
// never blocks a writer, and a disabled tracer costs one atomic load
// and zero allocations per instrumentation site.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, generation size).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bucket i counts
// observations v <= bounds[i]; one overflow bucket counts the rest.
// Observe is lock-free: a bucket hit is one atomic add, the running
// sum a CAS loop on the float bits. There is deliberately no separate
// count cell: an Observe racing a snapshot could otherwise leave the
// snapshot showing count ≠ Σbuckets, so the count is always derived
// from the buckets themselves (see Snapshot for the consistency
// contract).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram over ascending upper bounds. It
// panics on unsorted or empty bounds, which indicate programmer error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending and non-empty")
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a histogram's point-in-time reading: Counts has
// one entry per bound plus a final overflow entry, and Quantiles holds
// the exported SLO probes (p50/p90/p99/p999) interpolated from the
// buckets at snapshot time — estimation is a read-side cost, never an
// Observe-side one.
type HistogramSnapshot struct {
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Bounds    []float64          `json:"le"`
	Counts    []int64            `json:"n"`
	Quantiles map[string]float64 `json:"q,omitempty"`
}

// quantileProbes are the SLO quantiles every histogram snapshot
// exports. The names double as the JSON keys, so they sort (and render)
// deterministically: p50 < p90 < p99 < p999.
var quantileProbes = []struct {
	name string
	q    float64
}{
	{"p50", 0.50},
	{"p90", 0.90},
	{"p99", 0.99},
	{"p999", 0.999},
}

// Quantile estimates the q-quantile (clamped to [0, 1]) of the
// recorded distribution by linear interpolation inside the bucket
// holding the target rank, the same estimator Prometheus's
// histogram_quantile uses: the first bucket's lower edge is 0, and a
// rank landing in the overflow bucket reports the highest finite
// bound (the histogram cannot see past its own buckets). An empty
// histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Counts {
		prev := float64(cum)
		cum += n
		if n == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: the distribution's tail is beyond the
			// last finite bound; report the bound rather than invent a
			// shape for territory the histogram never measured.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*((rank-prev)/float64(n))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot reads the histogram under a relaxed-consistency contract:
// Count is reported as the sum of the bucket reads, so every snapshot
// satisfies count == Σbuckets by construction (concurrent observers
// may land between individual bucket loads, so the buckets themselves
// are consistent with *some* interleaving of the observation stream,
// not necessarily a single prefix). Sum is read last and may include
// observations whose bucket increment was not yet visible — it is an
// aggregate for averages, not an exact pair with Count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count > 0 {
		s.Quantiles = make(map[string]float64, len(quantileProbes))
		for _, p := range quantileProbes {
			s.Quantiles[p.name] = s.Quantile(p.q)
		}
	}
	return s
}

// Registry is a named set of metrics. Get-or-create accessors are
// idempotent, so packages can look metrics up by name at use sites
// instead of threading pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use. A later call with the same bounds returns the existing
// histogram; a later call with *different* bounds panics — silently
// returning the first registration would skew every observation the
// second call site records into buckets it never asked for, which is
// programmer error exactly like unsorted bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
		return h
	}
	if !boundsEqual(h.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds (%v, was %v)",
			name, bounds, h.bounds))
	}
	return h
}

// boundsEqual reports whether two bound slices are element-wise equal.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot is the registry's point-in-time reading, the /v1/metrics
// payload. encoding/json serializes map keys sorted, so the rendered
// form is deterministic for a given set of values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
