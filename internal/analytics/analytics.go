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

	"vmp/internal/device"
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

// Dim extracts the dimension value(s) a view record contributes to: a
// platform name, a device model, or the CDN(s) that served it.
type Dim func(*telemetry.ViewRecord) []string

// PlatformDim attributes a record to its platform category.
func PlatformDim(r *telemetry.ViewRecord) []string {
	m, ok := device.ByName(r.Device)
	if !ok {
		return nil
	}
	return []string{m.Platform.String()}
}

// CDNDim attributes a record to every CDN that served chunks during
// the view (§3 footnote: a single view may use multiple CDNs).
func CDNDim(r *telemetry.ViewRecord) []string { return r.CDNs }

// DeviceDim attributes a record to its device model, restricted to one
// platform (the within-platform splits of Fig 10); records from other
// platforms contribute nothing.
func DeviceDim(pl device.Platform) Dim {
	return func(r *telemetry.ViewRecord) []string {
		m, ok := device.ByName(r.Device)
		if !ok || m.Platform != pl {
			return nil
		}
		return []string{m.Name}
	}
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

// ShareOfPublishers computes, per snapshot, the percentage of
// publishers with at least one view on each dimension value (Figs 2a,
// 7, 11a). Percentages can sum above 100 because publishers support
// multiple values.
func ShareOfPublishers(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim) *TimeSeries {
	ts := newTimeSeries(sched)
	for si, snap := range sched {
		recs := ds.Window(snap)
		pubs := map[string]bool{}
		byKey := map[string]map[string]bool{}
		for i := range recs {
			r := &recs[i]
			pubs[r.Publisher] = true
			for _, k := range dim(r) {
				set := byKey[k]
				if set == nil {
					set = map[string]bool{}
					byKey[k] = set
				}
				set[r.Publisher] = true
			}
		}
		if len(pubs) == 0 {
			continue
		}
		for _, k := range sortedKeys(byKey) {
			ts.row(k)[si] = 100 * float64(len(byKey[k])) / float64(len(pubs))
		}
	}
	ts.sortKeys()
	return ts
}

// ShareOfViewHours computes, per snapshot, the percentage of
// view-hours attributed to each dimension value (Figs 2b, 6a, 11b).
// Records from publishers in exclude are dropped first (Figs 2c, 6b).
// Records contributing multiple values (multi-CDN views) split their
// view-hours evenly.
func ShareOfViewHours(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim, exclude map[string]bool) *TimeSeries {
	return shareOf(ds, sched, dim, exclude, (*telemetry.ViewRecord).ViewHours)
}

// ShareOfViews is ShareOfViewHours with views instead of view-hours as
// the measure (Fig 6c).
func ShareOfViews(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim, exclude map[string]bool) *TimeSeries {
	return shareOf(ds, sched, dim, exclude, (*telemetry.ViewRecord).Views)
}

func shareOf(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim, exclude map[string]bool,
	measure func(*telemetry.ViewRecord) float64) *TimeSeries {
	ts := newTimeSeries(sched)
	for si, snap := range sched {
		recs := ds.Window(snap)
		total := 0.0
		byKey := map[string]float64{}
		for i := range recs {
			r := &recs[i]
			if exclude[r.Publisher] {
				continue
			}
			m := measure(r)
			keys := dim(r)
			if len(keys) == 0 {
				continue
			}
			total += m
			share := m / float64(len(keys))
			for _, k := range keys {
				byKey[k] += share
			}
		}
		if total == 0 {
			continue
		}
		for _, k := range sortedKeys(byKey) {
			ts.row(k)[si] = 100 * byKey[k] / total
		}
	}
	ts.sortKeys()
	return ts
}

// TopPublishersByViewHours returns the n publishers with the most
// view-hours in the record set, for the paper's exclusion analyses.
func TopPublishersByViewHours(recs []telemetry.ViewRecord, n int) map[string]bool {
	vh := map[string]float64{}
	for i := range recs {
		vh[recs[i].Publisher] += recs[i].ViewHours()
	}
	type pv struct {
		p string
		v float64
	}
	all := make([]pv, 0, len(vh))
	for _, p := range sortedKeys(vh) {
		all = append(all, pv{p, vh[p]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].p < all[j].p
	})
	out := map[string]bool{}
	for i := 0; i < n && i < len(all); i++ {
		out[all[i].p] = true
	}
	return out
}

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

// InstancesPerPublisher computes the instance-count histogram for one
// snapshot's records.
func InstancesPerPublisher(recs []telemetry.ViewRecord, dim Dim) *Histogram {
	pubKeys := map[string]map[string]bool{}
	pubVH := map[string]float64{}
	total := 0.0
	for i := range recs {
		r := &recs[i]
		set := pubKeys[r.Publisher]
		if set == nil {
			set = map[string]bool{}
			pubKeys[r.Publisher] = set
		}
		for _, k := range dim(r) {
			set[k] = true
		}
		vh := r.ViewHours()
		pubVH[r.Publisher] += vh
		total += vh
	}
	nPubs := len(pubKeys)
	byCount := map[int]*struct{ pubs, vh float64 }{}
	for _, pub := range sortedKeys(pubKeys) {
		n := len(pubKeys[pub])
		e := byCount[n]
		if e == nil {
			e = &struct{ pubs, vh float64 }{}
			byCount[n] = e
		}
		e.pubs++
		e.vh += pubVH[pub]
	}
	h := &Histogram{}
	for n := range byCount {
		h.Counts = append(h.Counts, n)
	}
	sort.Ints(h.Counts)
	for _, n := range h.Counts {
		e := byCount[n]
		h.PubPct = append(h.PubPct, 100*e.pubs/float64(nPubs))
		if total > 0 {
			h.VHPct = append(h.VHPct, 100*e.vh/total)
		} else {
			h.VHPct = append(h.VHPct, 0)
		}
	}
	return h
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

// InstancesByBucket computes the bucketed breakdown from one
// snapshot's records. snapshotDays converts window view-hours to daily
// view-hours for bucketing.
func InstancesByBucket(recs []telemetry.ViewRecord, dim Dim, snapshotDays, numBuckets int) *BucketBreakdown {
	if snapshotDays <= 0 {
		snapshotDays = 1
	}
	pubKeys := map[string]map[string]bool{}
	pubVH := map[string]float64{}
	for i := range recs {
		r := &recs[i]
		set := pubKeys[r.Publisher]
		if set == nil {
			set = map[string]bool{}
			pubKeys[r.Publisher] = set
		}
		for _, k := range dim(r) {
			set[k] = true
		}
		pubVH[r.Publisher] += r.ViewHours()
	}
	bb := &BucketBreakdown{
		Buckets:      make([]map[int]float64, numBuckets),
		PubsInBucket: make([]float64, numBuckets),
	}
	for i := range bb.Buckets {
		bb.Buckets[i] = map[int]float64{}
	}
	nPubs := float64(len(pubKeys))
	if nPubs == 0 {
		return bb
	}
	for _, pub := range sortedKeys(pubKeys) {
		b := VHBucket(pubVH[pub]/float64(snapshotDays), numBuckets)
		bb.Buckets[b][len(pubKeys[pub])] += 100 / nPubs
		bb.PubsInBucket[b] += 100 / nPubs
	}
	return bb
}

// AveragesSeries is the Figs 3c/9c/12c view: the per-snapshot average
// instance count across publishers, plain and view-hour weighted.
type AveragesSeries struct {
	Snapshots []string
	Mean      []float64
	Weighted  []float64
}

// AverageInstances computes the instance-count averages over time.
func AverageInstances(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim) *AveragesSeries {
	out := &AveragesSeries{}
	for _, snap := range sched {
		recs := ds.Window(snap)
		pubKeys := map[string]map[string]bool{}
		pubVH := map[string]float64{}
		for i := range recs {
			r := &recs[i]
			set := pubKeys[r.Publisher]
			if set == nil {
				set = map[string]bool{}
				pubKeys[r.Publisher] = set
			}
			for _, k := range dim(r) {
				set[k] = true
			}
			pubVH[r.Publisher] += r.ViewHours()
		}
		var counts, weights []float64
		for _, pub := range sortedKeys(pubKeys) {
			counts = append(counts, float64(len(pubKeys[pub])))
			weights = append(weights, pubVH[pub])
		}
		out.Snapshots = append(out.Snapshots, snap.Label())
		out.Mean = append(out.Mean, stats.Mean(counts))
		out.Weighted = append(out.Weighted, stats.WeightedMean(counts, weights))
	}
	return out
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

// SupporterShareCDF computes Fig 4: across publishers with at least
// one view on the given dimension value, the distribution of the
// percentage of each publisher's view-hours attributed to that value.
func SupporterShareCDF(recs []telemetry.ViewRecord, dim Dim, key string) CDF {
	pubTotal := map[string]float64{}
	pubKey := map[string]float64{}
	for i := range recs {
		r := &recs[i]
		vh := r.ViewHours()
		pubTotal[r.Publisher] += vh
		keys := dim(r)
		for _, k := range keys {
			if k == key {
				pubKey[r.Publisher] += vh / float64(len(keys))
			}
		}
	}
	var shares []float64
	for _, pub := range sortedKeys(pubKey) {
		if t := pubTotal[pub]; t > 0 {
			shares = append(shares, 100*pubKey[pub]/t)
		}
	}
	return FromECDF(stats.NewECDF(shares))
}

// DurationCDFs computes Fig 8: per-platform CDFs of individual view
// durations in hours. Records are expanded by their sampling weights so
// the CDF is over views, matching the paper's census.
func DurationCDFs(recs []telemetry.ViewRecord) map[string]CDF {
	type sample struct{ durs, weights []float64 }
	byPlatform := map[string]*sample{}
	for i := range recs {
		keys := PlatformDim(&recs[i])
		if len(keys) == 0 {
			continue
		}
		s := byPlatform[keys[0]]
		if s == nil {
			s = &sample{}
			byPlatform[keys[0]] = s
		}
		s.durs = append(s.durs, recs[i].ViewSec/3600)
		s.weights = append(s.weights, recs[i].Views())
	}
	out := map[string]CDF{}
	for pl, s := range byPlatform {
		xs, ps := stats.NewWeightedECDF(s.durs, s.weights).Points()
		out[pl] = CDF{X: xs, P: ps}
	}
	return out
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

// Macro computes the macroscopic stats over one snapshot's records.
// snapshotDays converts window view-hours to a daily rate.
func Macro(recs []telemetry.ViewRecord, snapshotDays int) MacroStats {
	if snapshotDays <= 0 {
		snapshotDays = 1
	}
	pubs := map[string]struct{}{}
	geos := map[string]struct{}{}
	var m MacroStats
	for i := range recs {
		r := &recs[i]
		pubs[r.Publisher] = struct{}{}
		if r.Geo != "" {
			geos[r.Geo] = struct{}{}
		}
		m.SampledViews++
		m.ViewsRepresented += r.Views()
		m.ViewHours += r.ViewHours()
	}
	m.Publishers = len(pubs)
	m.DistinctGeos = len(geos)
	m.DailyViewHours = m.ViewHours / float64(snapshotDays)
	return m
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

// Segregation computes SegregationStats over one snapshot's records.
func Segregation(recs []telemetry.ViewRecord) SegregationStats {
	type usage struct{ live, vod bool }
	pubCDN := map[string]map[string]*usage{}
	for i := range recs {
		r := &recs[i]
		m := pubCDN[r.Publisher]
		if m == nil {
			m = map[string]*usage{}
			pubCDN[r.Publisher] = m
		}
		for _, c := range r.CDNs {
			u := m[c]
			if u == nil {
				u = &usage{}
				m[c] = u
			}
			if r.Live {
				u.live = true
			} else {
				u.vod = true
			}
		}
	}
	var s SegregationStats
	var vodOnly, liveOnly int
	for _, m := range pubCDN {
		if len(m) < 2 {
			continue
		}
		anyLive, anyVoD := false, false
		for _, u := range m {
			anyLive = anyLive || u.live
			anyVoD = anyVoD || u.vod
		}
		if !anyLive || !anyVoD {
			continue
		}
		s.EligiblePublishers++
		hasVoDOnly, hasLiveOnly, allExclusive := false, false, true
		for _, u := range m {
			switch {
			case u.vod && !u.live:
				hasVoDOnly = true
			case u.live && !u.vod:
				hasLiveOnly = true
			default:
				allExclusive = false
			}
		}
		if hasVoDOnly {
			vodOnly++
		}
		if hasLiveOnly {
			liveOnly++
		}
		if allExclusive {
			s.FullySegregated++
		}
	}
	if s.EligiblePublishers > 0 {
		s.VoDOnlyFrac = float64(vodOnly) / float64(s.EligiblePublishers)
		s.LiveOnlyFrac = float64(liveOnly) / float64(s.EligiblePublishers)
	}
	return s
}
