package analytics

// The §4 analyses over a telemetry.Dataset — immutable, timestamp-
// sorted, with interned dimension IDs — so windows are row ranges
// [lo, hi) and accumulation is ID-indexed slice arithmetic. They are the
// one kernel per figure; reference_test.go holds the row-at-a-time
// references they are tested against (integer-derived percentages
// exactly; sums a reference accumulates in map order agree to rounding).
//
// Two kernels here are shared with the serving plane (internal/live),
// so a figure and a query answer are the same function of the same
// rows: shareAcc, how a record's measure is attributed to its dimension
// values, and RankPublishers, how publishers are ordered by view-hours.

import (
	"sort"

	"vmp/internal/simclock"
	"vmp/internal/stats"
	"vmp/internal/telemetry"
)

// DimBundle holds every per-snapshot series the §4 figure families
// derive from one dimension: publisher shares (Figs 2a/7/11a),
// view-hour shares (2b/6a/11b), view shares (6c), and instance-count
// averages (3c/9c/12c).
type DimBundle struct {
	Publishers *TimeSeries
	ViewHours  *TimeSeries
	Views      *TimeSeries
	Averages   *AveragesSeries
}

// Share is one dimension value's slice of the total. The JSON names are
// the serving plane's (/v1/query/share).
type Share struct {
	Key string  `json:"key"`
	Pct float64 `json:"pct"`
}

// shareAcc attributes a measure to the values of one dimension over a
// run of records: a record that has any value adds its measure to the
// total and an even split of it to each of its values (a multi-CDN view
// counts once, in parts). It is the one statement of that rule; every
// share the study prints or the daemon serves is read out of one.
type shareAcc struct {
	col   *telemetry.DimColumn
	val   []float64 // by value ID
	seen  []bool
	order []int32 // values seen, first seen first
	total float64
}

func newShareAcc(col *telemetry.DimColumn) *shareAcc {
	n := col.Cardinality()
	return &shareAcc{col: col, val: make([]float64, n), seen: make([]bool, n), order: make([]int32, 0, n)}
}

// add attributes measure m of a record whose dimension values are ids.
func (a *shareAcc) add(ids []int32, m float64) {
	if len(ids) == 0 {
		return
	}
	a.total += m
	share := m / float64(len(ids))
	for _, k := range ids {
		if !a.seen[k] {
			a.seen[k] = true
			a.order = append(a.order, k)
		}
		a.val[k] += share
	}
}

// flush returns every value seen since the last flush with its
// percentage of the total, first seen first — none when the total is
// zero — and leaves the accumulator empty for the next window.
func (a *shareAcc) flush() []Share {
	shares := make([]Share, 0, len(a.order))
	for _, k := range a.order {
		if a.total != 0 {
			shares = append(shares, Share{Key: a.col.Name(k), Pct: 100 * a.val[k] / a.total})
		}
		a.val[k], a.seen[k] = 0, false
	}
	a.order, a.total = a.order[:0], 0
	return shares
}

// ShareOverRows computes each value of col's percentage of view-hours
// (of views with useViews) over rows [lo, hi) of ds, leaving out the
// records of publishers set in the ID-indexed mask exclude (nil
// excludes nothing). The result is sorted by key, and empty — not nil —
// when no counted record has a value.
func ShareOverRows(ds *telemetry.Dataset, col *telemetry.DimColumn, lo, hi int, exclude []bool, useViews bool) []Share {
	acc := newShareAcc(col)
	for i := lo; i < hi; i++ {
		if exclude != nil && exclude[ds.PublisherID(i)] {
			continue
		}
		m := ds.ViewHoursAt(i)
		if useViews {
			m = ds.ViewsAt(i)
		}
		acc.add(col.IDs(i), m)
	}
	shares := acc.flush()
	sort.Slice(shares, func(i, j int) bool { return shares[i].Key < shares[j].Key })
	return shares
}

// AnalyzeDim computes a dimension's full bundle in a single fused pass
// per snapshot window, replacing four separate scans of the same
// records.
func AnalyzeDim(ds *telemetry.Dataset, sched simclock.Schedule, col *telemetry.DimColumn) *DimBundle {
	b := &DimBundle{
		Publishers: newTimeSeries(sched),
		ViewHours:  newTimeSeries(sched),
		Views:      newTimeSeries(sched),
		Averages:   &AveragesSeries{},
	}
	nKeys := col.Cardinality()
	nPubs := ds.NumPublishers()
	var (
		stamp       int32
		pubStamp    = make([]int32, nPubs)
		pubVH       = make([]float64, nPubs)
		pubCount    = make([]int32, nPubs) // distinct keys per publisher
		pubOrder    = make([]int32, 0, nPubs)
		keyStamp    = make([]int32, nKeys)
		keyPubs     = make([]int32, nKeys) // distinct publishers per key
		keyOrder    = make([]int32, 0, nKeys)
		keyPubStamp = make([]int32, nKeys*nPubs)
		counts      = make([]float64, 0, nPubs)
		weights     = make([]float64, 0, nPubs)
		viewHours   = newShareAcc(col)
		views       = newShareAcc(col)
	)
	for si, snap := range sched {
		stamp++
		lo, hi := ds.WindowBounds(snap)
		pubOrder, keyOrder = pubOrder[:0], keyOrder[:0]
		for i := lo; i < hi; i++ {
			p := ds.PublisherID(i)
			if pubStamp[p] != stamp {
				pubStamp[p] = stamp
				pubVH[p] = 0
				pubCount[p] = 0
				pubOrder = append(pubOrder, p)
			}
			vh := ds.ViewHoursAt(i)
			pubVH[p] += vh
			ids := col.IDs(i)
			for _, k := range ids {
				if keyStamp[k] != stamp {
					keyStamp[k] = stamp
					keyPubs[k] = 0
					keyOrder = append(keyOrder, k)
				}
				if cell := int(k)*nPubs + int(p); keyPubStamp[cell] != stamp {
					keyPubStamp[cell] = stamp
					keyPubs[k]++
					pubCount[p]++
				}
			}
			viewHours.add(ids, vh)
			views.add(ids, ds.ViewsAt(i))
		}
		if len(pubOrder) > 0 {
			den := float64(len(pubOrder))
			for _, k := range keyOrder {
				b.Publishers.row(col.Name(k))[si] = 100 * float64(keyPubs[k]) / den
			}
		}
		for _, sh := range viewHours.flush() {
			b.ViewHours.row(sh.Key)[si] = sh.Pct
		}
		for _, sh := range views.flush() {
			b.Views.row(sh.Key)[si] = sh.Pct
		}
		counts, weights = counts[:0], weights[:0]
		for _, p := range pubOrder {
			counts = append(counts, float64(pubCount[p]))
			weights = append(weights, pubVH[p])
		}
		b.Averages.Snapshots = append(b.Averages.Snapshots, snap.Label())
		b.Averages.Mean = append(b.Averages.Mean, stats.Mean(counts))
		b.Averages.Weighted = append(b.Averages.Weighted, stats.WeightedMean(counts, weights))
	}
	b.Publishers.sortKeys()
	b.ViewHours.sortKeys()
	b.Views.sortKeys()
	return b
}

// ShareOfViewHoursDataset computes, per snapshot, each value of col's
// percentage of view-hours (Figs 2c, 6b, 10), leaving out the records of
// the publishers set in the ID-indexed mask exclude (nil excludes
// nothing).
func ShareOfViewHoursDataset(ds *telemetry.Dataset, sched simclock.Schedule, col *telemetry.DimColumn, exclude []bool) *TimeSeries {
	ts := newTimeSeries(sched)
	for si, snap := range sched {
		lo, hi := ds.WindowBounds(snap)
		for _, sh := range ShareOverRows(ds, col, lo, hi, exclude, false) {
			ts.row(sh.Key)[si] = sh.Pct
		}
	}
	ts.sortKeys()
	return ts
}

// windowInstances is the shared per-window aggregation of the Fig
// 3/9/12 families: distinct dimension values and view-hours per
// publisher, in first-seen publisher order.
func windowInstances(ds *telemetry.Dataset, snap simclock.Snapshot, col *telemetry.DimColumn) (pubOrder []int32, pubCount []int32, pubVH []float64, totalVH float64) {
	nKeys := col.Cardinality()
	nPubs := ds.NumPublishers()
	pubCount = make([]int32, nPubs)
	pubVH = make([]float64, nPubs)
	pubSeen := make([]bool, nPubs)
	keyPubSeen := make([]bool, nKeys*nPubs)
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		p := ds.PublisherID(i)
		if !pubSeen[p] {
			pubSeen[p] = true
			pubOrder = append(pubOrder, p)
		}
		for _, k := range col.IDs(i) {
			if cell := int(k)*nPubs + int(p); !keyPubSeen[cell] {
				keyPubSeen[cell] = true
				pubCount[p]++
			}
		}
		vh := ds.ViewHoursAt(i)
		pubVH[p] += vh
		totalVH += vh
	}
	return pubOrder, pubCount, pubVH, totalVH
}

// InstancesPerPublisherDataset computes the instance-count histogram of
// col over one snapshot (Figs 3a, 9a, 12a).
func InstancesPerPublisherDataset(ds *telemetry.Dataset, snap simclock.Snapshot, col *telemetry.DimColumn) *Histogram {
	pubOrder, pubCount, pubVH, totalVH := windowInstances(ds, snap, col)
	maxCount := 0
	for _, p := range pubOrder {
		if int(pubCount[p]) > maxCount {
			maxCount = int(pubCount[p])
		}
	}
	pubsAt := make([]float64, maxCount+1)
	vhAt := make([]float64, maxCount+1)
	for _, p := range pubOrder {
		n := pubCount[p]
		pubsAt[n]++
		vhAt[n] += pubVH[p]
	}
	h := &Histogram{}
	nPubs := float64(len(pubOrder))
	for n := 0; n <= maxCount; n++ {
		if pubsAt[n] == 0 {
			continue
		}
		h.Counts = append(h.Counts, n)
		h.PubPct = append(h.PubPct, 100*pubsAt[n]/nPubs)
		if totalVH > 0 {
			h.VHPct = append(h.VHPct, 100*vhAt[n]/totalVH)
		} else {
			h.VHPct = append(h.VHPct, 0)
		}
	}
	return h
}

// InstancesByBucketDataset computes the bucketed breakdown of col over
// one snapshot (Figs 3b, 9b, 12b). snapshotDays converts window
// view-hours to daily view-hours for bucketing.
func InstancesByBucketDataset(ds *telemetry.Dataset, snap simclock.Snapshot, col *telemetry.DimColumn, snapshotDays, numBuckets int) *BucketBreakdown {
	if snapshotDays <= 0 {
		snapshotDays = 1
	}
	pubOrder, pubCount, pubVH, _ := windowInstances(ds, snap, col)
	bb := &BucketBreakdown{
		Buckets:      make([]map[int]float64, numBuckets),
		PubsInBucket: make([]float64, numBuckets),
	}
	for i := range bb.Buckets {
		bb.Buckets[i] = map[int]float64{}
	}
	nPubs := float64(len(pubOrder))
	if nPubs == 0 {
		return bb
	}
	for _, p := range pubOrder {
		b := VHBucket(pubVH[p]/float64(snapshotDays), numBuckets)
		bb.Buckets[b][int(pubCount[p])] += 100 / nPubs
		bb.PubsInBucket[b] += 100 / nPubs
	}
	return bb
}

// valueID returns the ID of col's value name, or -1 when no record has
// it.
func valueID(col *telemetry.DimColumn, name string) int32 {
	for id := range int32(col.Cardinality()) {
		if col.Name(id) == name {
			return id
		}
	}
	return -1
}

// SupporterShareCDFDataset computes Fig 4 over one snapshot: across
// publishers with at least one view on col's value key, the
// distribution of the percentage of each publisher's view-hours
// attributed to it. Each publisher's sums run in record order, as the
// reference's do, so every share is its to the bit.
func SupporterShareCDFDataset(ds *telemetry.Dataset, snap simclock.Snapshot, col *telemetry.DimColumn, key string) CDF {
	want := valueID(col, key)
	nPubs := ds.NumPublishers()
	total := make([]float64, nPubs)
	keyed := make([]float64, nPubs)
	supports := make([]bool, nPubs)
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		p, vh := ds.PublisherID(i), ds.ViewHoursAt(i)
		total[p] += vh
		ids := col.IDs(i)
		for _, k := range ids {
			if k == want {
				keyed[p] += vh / float64(len(ids))
				supports[p] = true
			}
		}
	}
	var shares []float64
	for p, ok := range supports {
		if ok && total[p] > 0 {
			shares = append(shares, 100*keyed[p]/total[p])
		}
	}
	return FromECDF(stats.NewECDF(shares))
}

// CrossDataset computes the cross-tabulation of rowCol's values by
// colCol's over one snapshot. A record with several values on a
// dimension splits its view-hours evenly across the combinations. Each
// cell sums in record order, as the reference's does, so every cell is
// its to the bit.
func CrossDataset(ds *telemetry.Dataset, snap simclock.Snapshot, rowCol, colCol *telemetry.DimColumn) *CrossTab {
	nCols := colCol.Cardinality()
	cells := make([]float64, rowCol.Cardinality()*nCols)
	seen := make([]bool, len(cells))
	ct := &CrossTab{ViewHours: make(map[string]map[string]float64)}
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		rows, cols := rowCol.IDs(i), colCol.IDs(i)
		if len(rows) == 0 || len(cols) == 0 {
			continue
		}
		vh := ds.ViewHoursAt(i)
		ct.Total += vh
		share := vh / float64(len(rows)*len(cols))
		for _, r := range rows {
			for _, c := range cols {
				cell := int(r)*nCols + int(c)
				cells[cell] += share
				seen[cell] = true
			}
		}
	}
	colSeen := make([]bool, nCols)
	for cell, ok := range seen {
		if !ok {
			continue
		}
		r, c := cell/nCols, cell%nCols
		row, col := rowCol.Name(int32(r)), colCol.Name(int32(c))
		if ct.ViewHours[row] == nil {
			ct.ViewHours[row] = map[string]float64{}
			ct.RowKeys = append(ct.RowKeys, row)
		}
		ct.ViewHours[row][col] = cells[cell]
		if !colSeen[c] {
			colSeen[c] = true
			ct.ColKeys = append(ct.ColKeys, col)
		}
	}
	sort.Strings(ct.RowKeys)
	sort.Strings(ct.ColKeys)
	return ct
}

// RankedPublisher is one row of a publisher ranking. The JSON names are
// the serving plane's (/v1/query/top-publishers).
type RankedPublisher struct {
	Publisher string  `json:"publisher"`
	ViewHours float64 `json:"view_hours"`
	Pct       float64 `json:"pct"`
}

// RankPublishers ranks the publishers with a record in rows [lo, hi) of
// ds by their view-hours there, ties broken by name ascending, and
// returns them with the total: the paper's "largest publishers", for
// the exclusion analyses and for /v1/query/top-publishers alike.
func RankPublishers(ds *telemetry.Dataset, lo, hi int) (rows []RankedPublisher, total float64) {
	nPubs := ds.NumPublishers()
	vh := make([]float64, nPubs)
	seen := make([]bool, nPubs)
	ids := make([]int32, 0, nPubs)
	for i := lo; i < hi; i++ {
		p, v := ds.PublisherID(i), ds.ViewHoursAt(i)
		if !seen[p] {
			seen[p] = true
			ids = append(ids, p)
		}
		vh[p] += v
		total += v
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if vh[a] != vh[b] {
			return vh[a] > vh[b]
		}
		return ds.PublisherName(a) < ds.PublisherName(b)
	})
	rows = make([]RankedPublisher, 0, len(ids))
	for _, id := range ids {
		pct := 0.0
		if total > 0 {
			pct = 100 * vh[id] / total
		}
		rows = append(rows, RankedPublisher{Publisher: ds.PublisherName(id), ViewHours: vh[id], Pct: pct})
	}
	return rows, total
}

// TopPublisherMask returns a publisher-ID-indexed mask of the n
// publishers with the most view-hours inside the snapshot, for the
// exclusion analyses.
func TopPublisherMask(ds *telemetry.Dataset, snap simclock.Snapshot, n int) []bool {
	lo, hi := ds.WindowBounds(snap)
	rows, _ := RankPublishers(ds, lo, hi)
	mask := make([]bool, ds.NumPublishers())
	for i := 0; i < n && i < len(rows); i++ {
		id, _ := ds.PublisherIDOf(rows[i].Publisher)
		mask[id] = true
	}
	return mask
}

// MacroDataset computes the macroscopic stats over one snapshot.
// snapshotDays converts window view-hours to a daily rate.
func MacroDataset(ds *telemetry.Dataset, snap simclock.Snapshot, snapshotDays int) MacroStats {
	if snapshotDays <= 0 {
		snapshotDays = 1
	}
	var m MacroStats
	nPubs := ds.NumPublishers()
	pubSeen := make([]bool, nPubs)
	geos := map[string]struct{}{}
	pubs := 0
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		if p := ds.PublisherID(i); !pubSeen[p] {
			pubSeen[p] = true
			pubs++
		}
		if g := ds.Record(i).Geo; g != "" {
			geos[g] = struct{}{}
		}
		m.SampledViews++
		m.ViewsRepresented += ds.ViewsAt(i)
		m.ViewHours += ds.ViewHoursAt(i)
	}
	m.Publishers = pubs
	m.DistinctGeos = len(geos)
	m.DailyViewHours = m.ViewHours / float64(snapshotDays)
	return m
}

// SegregationDataset computes §4.3's live/VoD segregation over one
// snapshot: per publisher, which of its CDNs served live views and
// which VoD, read from the CDN column and each record's Live flag.
func SegregationDataset(ds *telemetry.Dataset, snap simclock.Snapshot) SegregationStats {
	const live, vod = 1, 2
	col := ds.CDNCol()
	nCDNs := col.Cardinality()
	use := make([]uint8, ds.NumPublishers()*nCDNs) // publisher × CDN → live|vod bits
	lo, hi := ds.WindowBounds(snap)
	for i := lo; i < hi; i++ {
		bit := uint8(vod)
		if ds.Record(i).Live {
			bit = live
		}
		row := use[int(ds.PublisherID(i))*nCDNs:]
		for _, c := range col.IDs(i) {
			row[c] |= bit
		}
	}
	var s SegregationStats
	var vodOnly, liveOnly int
	for p := 0; p < len(use); p += nCDNs {
		cdns, seen, only, mixed := 0, uint8(0), uint8(0), false // only: the kinds some CDN served alone
		for _, u := range use[p : p+nCDNs] {
			switch u {
			case 0:
				continue
			case live, vod:
				only |= u
			default:
				mixed = true
			}
			cdns++
			seen |= u
		}
		if cdns < 2 || seen != live|vod {
			continue
		}
		s.EligiblePublishers++
		if only&vod != 0 {
			vodOnly++
		}
		if only&live != 0 {
			liveOnly++
		}
		if !mixed {
			s.FullySegregated++
		}
	}
	if s.EligiblePublishers > 0 {
		s.VoDOnlyFrac = float64(vodOnly) / float64(s.EligiblePublishers)
		s.LiveOnlyFrac = float64(liveOnly) / float64(s.EligiblePublishers)
	}
	return s
}
