package analytics

// The row-at-a-time references the column kernels of frozen.go are held
// to: each walks a window's records as a slice and keys every sum by
// dimension-value name in a map, the way the figures were first
// computed. No shipped code calls them; TestFrozenFiguresMatchLegacy
// and the *MatchesLegacy / *MatchReference tests do.

import (
	"sort"

	"vmp/internal/device"
	"vmp/internal/simclock"
	"vmp/internal/stats"
	"vmp/internal/telemetry"
)

// window returns the rows of all, which is ds.All(), inside the
// snapshot.
func window(ds *telemetry.Dataset, all []telemetry.ViewRecord, snap simclock.Snapshot) []telemetry.ViewRecord {
	lo, hi := ds.WindowBounds(snap)
	return all[lo:hi]
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

// ShareOfPublishers computes, per snapshot, the percentage of
// publishers with at least one view on each dimension value (Figs 2a,
// 7, 11a). Percentages can sum above 100 because publishers support
// multiple values.
func ShareOfPublishers(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim) *TimeSeries {
	ts := newTimeSeries(sched)
	all := ds.All()
	for si, snap := range sched {
		recs := window(ds, all, snap)
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
	all := ds.All()
	for si, snap := range sched {
		recs := window(ds, all, snap)
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

// AverageInstances computes the instance-count averages over time.
func AverageInstances(ds *telemetry.Dataset, sched simclock.Schedule, dim Dim) *AveragesSeries {
	out := &AveragesSeries{}
	all := ds.All()
	for _, snap := range sched {
		recs := window(ds, all, snap)
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

// Cross computes the cross-tabulation of two dimensions over a record
// set. Records contributing multiple values on a dimension split their
// view-hours evenly across the combinations.
func Cross(recs []telemetry.ViewRecord, rowDim, colDim Dim) *CrossTab {
	ct := &CrossTab{ViewHours: make(map[string]map[string]float64)}
	rowSeen := map[string]bool{}
	colSeen := map[string]bool{}
	for i := range recs {
		r := &recs[i]
		rows := rowDim(r)
		cols := colDim(r)
		if len(rows) == 0 || len(cols) == 0 {
			continue
		}
		vh := r.ViewHours()
		ct.Total += vh
		share := vh / float64(len(rows)*len(cols))
		for _, rk := range rows {
			if !rowSeen[rk] {
				rowSeen[rk] = true
				ct.RowKeys = append(ct.RowKeys, rk)
				ct.ViewHours[rk] = map[string]float64{}
			}
			for _, ck := range cols {
				if !colSeen[ck] {
					colSeen[ck] = true
					ct.ColKeys = append(ct.ColKeys, ck)
				}
				ct.ViewHours[rk][ck] += share
			}
		}
	}
	sort.Strings(ct.RowKeys)
	sort.Strings(ct.ColKeys)
	return ct
}
