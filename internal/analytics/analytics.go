// Package analytics implements the paper's characterization
// methodology (§4): for each management-plane dimension — streaming
// protocol, playback platform, CDN — it computes, from view records
// alone, how the dimension evolved across publishers and across
// view-hours, how many instances each publisher operates, and how
// instance counts correlate with publisher size. Each exported function
// corresponds to a figure family; the core package maps them onto the
// specific figure numbers.
package analytics

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"vmp/internal/simclock"
	"vmp/internal/stats"
	"vmp/internal/telemetry"
)

// sortedKeys returns m's keys in ascending order. Every aggregation in
// this package that folds a map into a slice or a float sum iterates
// via sortedKeys so the fold order — and therefore the last-ulp
// rounding of the figures — is identical on every run.
// TestCrossTabSharesFoldInKeyOrder fails if it does not (the order-*
// rows of docs/mutants.md).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TimeSeries is one per-snapshot percentage series per dimension value.
type TimeSeries struct {
	Snapshots []string             // snapshot labels, chronological
	Keys      []string             // dimension values, stable order
	Series    map[string][]float64 // key → percentage per snapshot
}

// newTimeSeries allocates a series spanning the schedule.
func newTimeSeries(sched simclock.Schedule) *TimeSeries {
	ts := &TimeSeries{Series: make(map[string][]float64)}
	for _, s := range sched {
		ts.Snapshots = append(ts.Snapshots, s.Label())
	}
	return ts
}

func (ts *TimeSeries) row(key string) []float64 {
	row, ok := ts.Series[key]
	if !ok {
		row = make([]float64, len(ts.Snapshots))
		ts.Series[key] = row
		ts.Keys = append(ts.Keys, key)
	}
	return row
}

// Latest returns the final value of a key's series, or 0.
func (ts *TimeSeries) Latest(key string) float64 {
	row, ok := ts.Series[key]
	if !ok || len(row) == 0 {
		return 0
	}
	return row[len(row)-1]
}

// First returns the first value of a key's series, or 0.
func (ts *TimeSeries) First(key string) float64 {
	row, ok := ts.Series[key]
	if !ok || len(row) == 0 {
		return 0
	}
	return row[0]
}

// sortKeys normalizes key order for deterministic rendering.
func (ts *TimeSeries) sortKeys() { sort.Strings(ts.Keys) }

// Histogram is the two-bar-per-count view of Figs 3a, 9a, 12a: for
// each instance count n, the percentage of publishers operating n
// instances and the percentage of view-hours those publishers carry.
type Histogram struct {
	Counts []int // ascending instance counts present
	PubPct []float64
	VHPct  []float64
}

// At returns the (pubPct, vhPct) pair for count n, or zeros.
func (h *Histogram) At(n int) (pubPct, vhPct float64) {
	for i, c := range h.Counts {
		if c == n {
			return h.PubPct[i], h.VHPct[i]
		}
	}
	return 0, 0
}

// BucketBreakdown is the Figs 3b/9b/12b view: publishers grouped into
// daily-view-hour decades, each decade broken down by instance count.
type BucketBreakdown struct {
	// Buckets[i] holds, for decade i, a map from instance count to the
	// percentage of ALL publishers that land in this (decade, count)
	// cell — matching the paper's bars, whose heights are shares of
	// the whole population.
	Buckets []map[int]float64
	// PubsInBucket[i] is the percentage of publishers in decade i.
	PubsInBucket []float64
}

// VHBucket maps a publisher's daily view-hours (X units) to its decade
// index in [0, NumBuckets).
func VHBucket(dailyVH float64, numBuckets int) int {
	if dailyVH <= 0 {
		return 0
	}
	b := int(math.Floor(math.Log10(dailyVH))) + 1
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// AveragesSeries is the Figs 3c/9c/12c view: the per-snapshot average
// instance count across publishers, plain and view-hour weighted.
type AveragesSeries struct {
	Snapshots []string
	Mean      []float64
	Weighted  []float64
}

// CDF is a plottable empirical CDF.
type CDF struct {
	X []float64
	P []float64
}

// FromECDF converts a stats.ECDF to plottable points.
func FromECDF(e *stats.ECDF) CDF {
	xs, ps := e.Points()
	return CDF{X: xs, P: ps}
}

// Durations is Fig 8 over one snapshot, by platform: the CDF of
// individual view durations in hours, and the percentage of sampled
// view records longer than 0.2 h.
type Durations struct {
	CDFs    map[string]CDF
	LongPct map[string]float64
}

// DurationCDFs computes Fig 8 over one snapshot of a frozen dataset in
// one pass, in record order, over its platform column. Records are
// expanded by their sampling weights so the CDF is over views,
// matching the paper's census; the > 0.2 h share counts sampled
// records.
func DurationCDFs(ds *telemetry.Dataset, snap simclock.Snapshot) *Durations {
	type sample struct {
		durs, weights []float64
		long          float64
	}
	col := ds.PlatformCol()
	byPlatform := make([]sample, col.Cardinality())
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		ids := col.IDs(i)
		if len(ids) == 0 {
			continue
		}
		s := &byPlatform[ids[0]]
		sec := ds.Record(i).ViewSec
		s.durs = append(s.durs, sec/3600)
		s.weights = append(s.weights, ds.ViewsAt(i))
		if sec > 0.2*3600 {
			s.long++
		}
	}
	d := &Durations{CDFs: map[string]CDF{}, LongPct: map[string]float64{}}
	for id := range byPlatform {
		s := &byPlatform[id]
		if len(s.durs) == 0 {
			continue
		}
		pl := col.Name(int32(id))
		xs, ps := stats.NewWeightedECDF(s.durs, s.weights).Points()
		d.CDFs[pl] = CDF{X: xs, P: ps}
		d.LongPct[pl] = 100 * s.long / float64(len(s.durs))
	}
	return d
}

// MacroStats is the §3 "macroscopic context": the aggregate scale of
// the dataset — publishers, views represented, view-hours, distinct
// geographies served (the paper: >100 publishers, >100 billion views,
// aggregate 0.06 billion daily view-hours, 180 countries).
type MacroStats struct {
	Publishers       int
	SampledViews     int
	ViewsRepresented float64
	ViewHours        float64
	DailyViewHours   float64
	DistinctGeos     int
}

// SegregationStats reproduces §4.3's live/VoD segregation measurement
// from records: among publishers observed on ≥2 CDNs serving both live
// and VoD, the fraction with at least one CDN seen only for VoD, and
// only for live.
type SegregationStats struct {
	EligiblePublishers int
	VoDOnlyFrac        float64
	LiveOnlyFrac       float64
	FullySegregated    int // publishers where every CDN is exclusive
}
