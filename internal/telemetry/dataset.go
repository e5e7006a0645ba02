package telemetry

import (
	"maps"
	"sort"

	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

// DimColumn is one interned dimension of a frozen Dataset: for every
// record it stores the small-integer IDs of the dimension values the
// record contributes to (a protocol, a platform, the CDNs of the view).
// Columns let the analytics hot loops replace per-record string keys
// and map lookups with ID-indexed slice accumulation.
type DimColumn struct {
	names []string         // id → dimension value
	index map[string]int32 // dimension value → id
	offs  []int32          // record i owns ids[offs[i]:offs[i+1]]
	ids   []int32
}

// Cardinality returns the number of distinct dimension values.
func (c *DimColumn) Cardinality() int { return len(c.names) }

// Name returns the dimension value for an ID.
func (c *DimColumn) Name(id int32) string { return c.names[id] }

// IDs returns record i's dimension-value IDs as a read-only view; the
// frozen-* rows of docs/mutants.md show the tests that catch a write
// through it.
func (c *DimColumn) IDs(i int) []int32 { return c.ids[c.offs[i]:c.offs[i+1]] }

// nameTable interns names on top of a predecessor's table without
// disturbing it. IDs already handed out stay valid: the names slice is
// clipped, so the first new name reallocates it, and the index map is
// cloned the first time a new name appears. A build that meets no new
// name shares both with its predecessor.
type nameTable struct {
	names  []string
	index  map[string]int32
	shared bool // index still belongs to the predecessor
}

func extendNames(names []string, index map[string]int32) nameTable {
	return nameTable{names: names[:len(names):len(names)], index: index, shared: true}
}

// intern returns name's ID, assigning the next one if name is new.
func (t *nameTable) intern(name string) (id int32, added bool) {
	if id, ok := t.index[name]; ok {
		return id, false
	}
	if t.shared {
		index := make(map[string]int32, len(t.index)+1)
		maps.Copy(index, t.index)
		t.index, t.shared = index, false
	}
	id = int32(len(t.names))
	t.index[name] = id
	t.names = append(t.names, name)
	return id, true
}

// rangeNames interns one freeze range's names on top of the base's
// table, which it only reads. A base name keeps its ID; a name new to
// the base gets len(base names) + k, k its first-seen rank in the range,
// until stitch gives it its final ID.
type rangeNames struct {
	base     map[string]int32
	nbase    int32
	index    map[string]int32 // new name → provisional ID
	names    []string         // new names in first-seen order
	final    []int32          // final ID of names[k], set by stitch
	renumber bool             // some final ID differs from its provisional one
}

func newRangeNames(names []string, index map[string]int32) rangeNames {
	return rangeNames{base: index, nbase: int32(len(names))}
}

func (t *rangeNames) intern(name string) int32 {
	if id, ok := t.base[name]; ok {
		return id
	}
	if id, ok := t.index[name]; ok {
		return id
	}
	if t.index == nil {
		t.index = make(map[string]int32)
	}
	id := t.nbase + int32(len(t.names))
	t.index[name] = id
	t.names = append(t.names, name)
	return id
}

// stitch interns the range's new names into tab, which already holds
// the base's names and those of the ranges before this one, in the
// order the range met them: the first-seen numbering of one build over
// every range in order.
func (t *rangeNames) stitch(tab *nameTable) {
	t.final = make([]int32, len(t.names))
	for k, name := range t.names {
		t.final[k], _ = tab.intern(name)
		t.renumber = t.renumber || t.final[k] != t.nbase+int32(k)
	}
}

// apply rewrites provisional IDs in ids to their final ones.
func (t *rangeNames) apply(ids []int32) {
	if !t.renumber {
		return
	}
	for i, id := range ids {
		if id >= t.nbase {
			ids[i] = t.final[id-t.nbase]
		}
	}
}

// copyRows makes src's rows [lo, hi) c's rows [at, at+hi-lo); c's rows
// before at are written.
func (c *DimColumn) copyRows(at int, src *DimColumn, lo, hi int) {
	start := c.offs[at]
	copy(c.ids[start:], src.ids[src.offs[lo]:src.offs[hi]])
	shift := start - src.offs[lo]
	dst := c.offs[at+1 : at+1+hi-lo]
	for k, off := range src.offs[lo+1 : hi+1] {
		dst[k] = off + shift
	}
}

// Dataset is an immutable, timestamp-sorted, read-optimized view of a
// record set: the one substrate the figure suite and the served queries
// run over. Per-record Views/ViewHours are precomputed columns, and the
// dimension keys the §4 analyses group by (publisher, protocol,
// platform, device model, CDN) are interned to small integer IDs. A
// Dataset is safe for concurrent use.
//
// Its rows are held one way: ref holds a pointer per row, in order,
// into the rows it was given — NewDataset's array, or the rows each cut
// gathered pointers to where admission had put them — which nothing
// writes again.
// Record and the columns are what the figures and the queries read, and
// they copy nothing; All is a fresh copy.
type Dataset struct {
	ref       []*ViewRecord
	views     []float64
	viewHours []float64

	pubNames []string
	pubIndex map[string]int32
	pubIDs   []int32

	protocol *DimColumn
	platform *DimColumn
	cdn      *DimColumn

	model         *DimColumn // device model of records with a known device
	modelPlatform []int32    // platform ID per model ID, parallel to model.names

	derived derivedTable
}

// NewDataset builds a frozen dataset over recs, taking ownership of the
// slice: the columns are built beside it, and the rows are not copied —
// the dataset points at them. Records are put in CanonicalSort order if
// they are not in it already, so every Dataset can be merged into.
func NewDataset(recs []ViewRecord) *Dataset {
	empty := &DimColumn{offs: []int32{0}}
	base := &Dataset{protocol: empty, platform: empty, cdn: empty, model: empty}
	if len(recs) == 0 {
		return base
	}
	ref := make([]*ViewRecord, len(recs))
	for i := range recs {
		ref[i] = &recs[i]
	}
	if d, sorted := base.freeze(ref); sorted {
		return d
	}
	// Sorting recs in place keeps ref[i] pointing at row i.
	CanonicalSort(recs)
	d, _ := base.freeze(ref)
	return d
}

// Merge returns the dataset holding d's records and the ones delta
// points at, taking ownership of delta, which must be in CanonicalSort
// order (Gather's result) — as d's records must be for the result to
// be. It is the epoch cut: the cost of comparing, hashing and interning
// is proportional to delta, d's columns are carried over by bulk copy,
// and no row is copied at all: the result points at d's rows and at
// delta's where they lie, and on the first cut delta is its ref. A
// record of delta goes after the records of d it compares equal to.
//
// IDs d handed out mean the same in the result; names first seen in
// delta get the next IDs, in the order delta first meets them. That
// numbering can differ from the one NewDataset would give the same
// records, and no answer may depend on it: the analyses accumulate per
// ID in record order and emit by name. d is not modified and the result
// does not keep it, or its columns, reachable — only the rows both
// point at; with nothing to add, the result is d itself. Neither
// argument's rows may be written afterwards.
func (d *Dataset) Merge(delta []*ViewRecord) *Dataset {
	if len(delta) == 0 {
		return d
	}
	nd, _ := d.freeze(delta)
	if d.Len() == 0 {
		return nd
	}
	return d.interleave(nd)
}

// freeze builds the dataset of rows, adopting the slice as its ref,
// interning names on top of d's tables. The rows are split into contiguous ranges, one per
// worker (workers): each range fills its rows' views, view-hours and
// protocol, resolves their devices and interns their publishers,
// platforms, models and CDNs into tables of its own on top of d's, which
// it only reads. A serial stitch then numbers each range's new names in
// range order, which is the numbering one build over all rows gives,
// and the ranges put their variable-length entries in place, renumbered,
// side by side. It also reports whether rows are in CanonicalSort order.
func (d *Dataset) freeze(rows []*ViewRecord) (*Dataset, bool) {
	n := len(rows)
	f := freezer{
		base: d,
		out: &Dataset{
			ref:       rows,
			views:     make([]float64, n),
			viewHours: make([]float64, n),
			pubIDs:    make([]int32, n),
			protocol:  &DimColumn{offs: make([]int32, n+1), ids: make([]int32, n)},
			platform:  &DimColumn{offs: make([]int32, n+1)},
			cdn:       &DimColumn{offs: make([]int32, n+1)},
			model:     &DimColumn{offs: make([]int32, n+1)},
		},
		ranges: make([]freezeRange, workers(n)),
	}
	w := len(f.ranges)
	parallel(w, func(k int) {
		lo, hi := span(n, w, k)
		f.build(&f.ranges[k], lo, hi)
	})
	f.stitch()
	sorted := true
	parallel(w, func(k int) { f.place(&f.ranges[k]) })
	for k := range f.ranges {
		sorted = sorted && f.ranges[k].sorted
	}
	return f.out, sorted
}

// freezer is one freeze under way: d's tables below it, the dataset it
// fills (its ref the rows it freezes), and its ranges.
type freezer struct {
	base   *Dataset
	out    *Dataset
	ranges []freezeRange
}

// freezeRange is one worker's share of a freeze: rows [lo, hi).
type freezeRange struct {
	lo, hi                        int
	sorted                        bool
	pubs, protocol, platform, cdn rangeNames
	model                         rangeNames
	platformIDs, modelIDs, cdnIDs []int32 // the range's entries of those columns, IDs provisional
	platformAt, modelAt, cdnAt    int32   // where they start in the column's ids, set by stitch
	protoIDs                      [manifest.Progressive + 1]int32
	models                        map[string]modelIDs
}

// modelIDs is a registered device model's IDs in the platform and
// model columns.
type modelIDs struct{ platform, model int32 }

// build fills rows [lo, hi) of the fixed-width columns and collects the
// range's entries of the others; a row's offsets in those are relative
// to the range's first entry until place shifts them.
func (f *freezer) build(r *freezeRange, lo, hi int) {
	b, out := f.base, f.out
	*r = freezeRange{
		lo: lo, hi: hi, sorted: true,
		pubs:        newRangeNames(b.pubNames, b.pubIndex),
		protocol:    newRangeNames(b.protocol.names, b.protocol.index),
		platform:    newRangeNames(b.platform.names, b.platform.index),
		cdn:         newRangeNames(b.cdn.names, b.cdn.index),
		model:       newRangeNames(b.model.names, b.model.index),
		platformIDs: make([]int32, 0, hi-lo),
		modelIDs:    make([]int32, 0, hi-lo),
		cdnIDs:      make([]int32, 0, 2*(hi-lo)), // grows only past two CDNs a view on average
		models:      make(map[string]modelIDs, len(device.Registry)),
	}
	for p := range r.protoIDs {
		r.protoIDs[p] = -1
	}
	rows := out.ref
	for i := lo; i < hi; i++ {
		rec := rows[i]
		if i > 0 && r.sorted && CompareRecords(rows[i-1], rec) > 0 {
			r.sorted = false
		}
		out.views[i] = rec.Views()
		out.viewHours[i] = rec.ViewHours()
		out.pubIDs[i] = r.pubs.intern(rec.Publisher)
		out.protocol.ids[i] = r.protocolID(manifest.InferProtocol(rec.URL))
		out.protocol.offs[i+1] = int32(i + 1)
		if ids, ok := r.modelIDsOf(rec.Device); ok {
			r.platformIDs = append(r.platformIDs, ids.platform)
			r.modelIDs = append(r.modelIDs, ids.model)
		}
		out.platform.offs[i+1] = int32(len(r.platformIDs))
		out.model.offs[i+1] = int32(len(r.modelIDs))
		for _, c := range rec.CDNs {
			r.cdnIDs = append(r.cdnIDs, r.cdn.intern(c))
		}
		out.cdn.offs[i+1] = int32(len(r.cdnIDs))
	}
}

// protocolID returns p's provisional ID in the protocol column,
// interning its name the first time the range meets p.
func (r *freezeRange) protocolID(p manifest.Protocol) int32 {
	if r.protoIDs[p] < 0 {
		r.protoIDs[p] = r.protocol.intern(p.String())
	}
	return r.protoIDs[p]
}

// modelIDsOf returns the provisional column IDs of a registered device
// model, interning its platform and name the first time the range meets
// it. Unknown names are looked up each time and never kept, so what the
// range holds is bounded by the registry, not by its input.
func (r *freezeRange) modelIDsOf(name string) (modelIDs, bool) {
	if ids, ok := r.models[name]; ok {
		return ids, true
	}
	m, ok := device.ByName(name)
	if !ok {
		return modelIDs{}, false
	}
	ids := modelIDs{platform: r.platform.intern(m.Platform.String()), model: r.model.intern(m.Name)}
	r.models[name] = ids
	return ids, true
}

// stitch numbers every range's new names, in range order, into tables
// that extend the base's, sizes the variable-length columns exactly and
// gives each range its place in them. A model new to the base records
// its platform's final ID, in model-ID order.
func (f *freezer) stitch() {
	b, out := f.base, f.out
	pubs := extendNames(b.pubNames, b.pubIndex)
	protocol := extendNames(b.protocol.names, b.protocol.index)
	platform := extendNames(b.platform.names, b.platform.index)
	cdn := extendNames(b.cdn.names, b.cdn.index)
	model := extendNames(b.model.names, b.model.index)
	var platformN, modelN, cdnN int32
	for k := range f.ranges {
		r := &f.ranges[k]
		r.pubs.stitch(&pubs)
		r.protocol.stitch(&protocol)
		r.platform.stitch(&platform)
		r.cdn.stitch(&cdn)
		r.model.stitch(&model)
		r.platformAt, r.modelAt, r.cdnAt = platformN, modelN, cdnN
		platformN += int32(len(r.platformIDs))
		modelN += int32(len(r.modelIDs))
		cdnN += int32(len(r.cdnIDs))
	}
	out.pubNames, out.pubIndex = pubs.names, pubs.index
	out.protocol.names, out.protocol.index = protocol.names, protocol.index
	out.platform.names, out.platform.index = platform.names, platform.index
	out.cdn.names, out.cdn.index = cdn.names, cdn.index
	out.model.names, out.model.index = model.names, model.index
	out.platform.ids = make([]int32, platformN)
	out.model.ids = make([]int32, modelN)
	out.cdn.ids = make([]int32, cdnN)
	out.modelPlatform = b.modelPlatform[:len(b.modelPlatform):len(b.modelPlatform)]
	for _, name := range model.names[len(b.model.names):] {
		m, _ := device.ByName(name)
		out.modelPlatform = append(out.modelPlatform, platform.index[m.Platform.String()])
	}
}

// place renumbers a range's IDs and puts its variable-length entries at
// the place stitch gave them.
func (f *freezer) place(r *freezeRange) {
	out := f.out
	r.pubs.apply(out.pubIDs[r.lo:r.hi])
	r.protocol.apply(out.protocol.ids[r.lo:r.hi])
	placeEntries(out.platform, r.lo, r.hi, r.platformAt, r.platformIDs, &r.platform)
	placeEntries(out.model, r.lo, r.hi, r.modelAt, r.modelIDs, &r.model)
	placeEntries(out.cdn, r.lo, r.hi, r.cdnAt, r.cdnIDs, &r.cdn)
}

// placeEntries copies one range's entries of col to col.ids[at:],
// renumbered, and shifts the range's row offsets by at.
func placeEntries(col *DimColumn, lo, hi int, at int32, ids []int32, names *rangeNames) {
	dst := col.ids[at : int(at)+len(ids)]
	copy(dst, ids)
	names.apply(dst)
	if at != 0 {
		for i := lo + 1; i <= hi; i++ {
			col.offs[i] += at
		}
	}
}

// interleave returns the dataset of d's rows and nd's in CanonicalSort
// order. nd holds the new rows, frozen on top of d's name tables, so its
// IDs and tables are the result's; a row of nd goes after the rows of d
// it compares equal to. Columns and row pointers are copied in runs: a
// run of d's between two new rows, a run of new rows between two of
// d's. The rows themselves stay where they are.
func (d *Dataset) interleave(nd *Dataset) *Dataset {
	n := d.Len() + nd.Len()
	col := func(old, added *DimColumn) *DimColumn {
		return &DimColumn{
			names: added.names, index: added.index,
			offs: make([]int32, n+1), ids: make([]int32, len(old.ids)+len(added.ids)),
		}
	}
	out := &Dataset{
		ref:           make([]*ViewRecord, n),
		views:         make([]float64, n),
		viewHours:     make([]float64, n),
		pubIDs:        make([]int32, n),
		pubNames:      nd.pubNames,
		pubIndex:      nd.pubIndex,
		protocol:      col(d.protocol, nd.protocol),
		platform:      col(d.platform, nd.platform),
		cdn:           col(d.cdn, nd.cdn),
		model:         col(d.model, nd.model),
		modelPlatform: nd.modelPlatform,
	}
	at, lo, old := 0, 0, d.Len()
	for i := 0; i < nd.Len(); {
		hi := d.mergePoint(lo, nd.ref[i])
		j := i + 1
		for j < nd.Len() && (hi == old || CompareRecords(d.ref[hi], nd.ref[j]) > 0) {
			j++
		}
		at = out.copyRows(at, d, lo, hi)
		at = out.copyRows(at, nd, i, j)
		i, lo = j, hi
	}
	out.copyRows(at, d, lo, old)
	return out
}

// mergePoint returns the first row from lo that sorts after r, or Len()
// if none does; d's rows from lo are a sorted run. It gallops: a delta
// that lands in a few places of a long base costs a few comparisons per
// landing, not a walk.
func (d *Dataset) mergePoint(lo int, r *ViewRecord) int {
	n, step := d.Len()-lo, 1
	for step < n && CompareRecords(d.ref[lo+step-1], r) <= 0 {
		step *= 2
	}
	from, to := lo+step/2, lo+min(step, n)
	return from + sort.Search(to-from, func(i int) bool { return CompareRecords(d.ref[from+i], r) > 0 })
}

// copyRows makes src's rows [lo, hi) the rows from at of d, a merged
// dataset interleave is still writing, and returns the row after them.
// What it copies of a row is its pointer.
func (d *Dataset) copyRows(at int, src *Dataset, lo, hi int) int {
	if lo == hi {
		return at
	}
	copy(d.ref[at:], src.ref[lo:hi])
	copy(d.views[at:], src.views[lo:hi])
	copy(d.viewHours[at:], src.viewHours[lo:hi])
	copy(d.pubIDs[at:], src.pubIDs[lo:hi])
	d.protocol.copyRows(at, src.protocol, lo, hi)
	d.platform.copyRows(at, src.platform, lo, hi)
	d.cdn.copyRows(at, src.cdn, lo, hi)
	d.model.copyRows(at, src.model, lo, hi)
	return at + hi - lo
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.ref) }

// Record returns record i as a read-only pointer (held by the frozen-*
// rows of docs/mutants.md, like every view below). It copies nothing.
func (d *Dataset) Record(i int) *ViewRecord { return d.ref[i] }

// All returns a fresh copy, the caller's, of every record in timestamp
// order.
func (d *Dataset) All() []ViewRecord {
	out := make([]ViewRecord, len(d.ref))
	for k, r := range d.ref {
		out[k] = *r
	}
	return out
}

// ViewsAt returns the precomputed Views() of record i.
func (d *Dataset) ViewsAt(i int) float64 { return d.views[i] }

// ViewHoursAt returns the precomputed ViewHours() of record i.
func (d *Dataset) ViewHoursAt(i int) float64 { return d.viewHours[i] }

// NumPublishers returns the number of distinct publishers.
func (d *Dataset) NumPublishers() int { return len(d.pubNames) }

// PublisherID returns the interned publisher ID of record i.
func (d *Dataset) PublisherID(i int) int32 { return d.pubIDs[i] }

// PublisherName returns the publisher ID's original identifier.
func (d *Dataset) PublisherName(id int32) string { return d.pubNames[id] }

// PublisherIDOf returns the interned ID of a publisher identifier, or
// false if the dataset holds no records for it.
func (d *Dataset) PublisherIDOf(name string) (int32, bool) {
	id, ok := d.pubIndex[name]
	return id, ok
}

// ProtocolCol returns the streaming-protocol dimension (one value per
// record, inferred from the manifest URL as in Table 1).
func (d *Dataset) ProtocolCol() *DimColumn { return d.protocol }

// PlatformCol returns the platform dimension (empty for records whose
// device model is not in the device registry).
func (d *Dataset) PlatformCol() *DimColumn { return d.platform }

// CDNCol returns the CDN dimension (every CDN used during the view).
func (d *Dataset) CDNCol() *DimColumn { return d.cdn }

// deviceColKey is the derived-value key of one platform's DeviceCol.
type deviceColKey string

// DeviceCol returns the device-model dimension restricted to one
// platform category (the within-platform splits of Fig 10): records on
// other platforms contribute no values. Columns are built lazily, once
// per platform name.
func (d *Dataset) DeviceCol(platform string) *DimColumn {
	col, _ := d.Derived(deviceColKey(platform), func() any { return d.buildDeviceCol(platform) })
	return col.(*DimColumn)
}

func (d *Dataset) buildDeviceCol(platform string) *DimColumn {
	var platformID int32 = -1
	for id, name := range d.platform.names {
		if name == platform {
			platformID = int32(id)
			break
		}
	}
	col := &DimColumn{names: d.model.names, offs: make([]int32, 1, d.Len()+1)}
	for i := range d.Len() {
		for _, mid := range d.model.IDs(i) {
			if d.modelPlatform[mid] == platformID {
				col.ids = append(col.ids, mid)
			}
		}
		col.offs = append(col.offs, int32(len(col.ids)))
	}
	return col
}

// WindowBounds returns the half-open record-index range [lo, hi) whose
// timestamps fall inside the snapshot: two binary searches.
func (d *Dataset) WindowBounds(snap simclock.Snapshot) (lo, hi int) {
	lo = sort.Search(d.Len(), func(i int) bool {
		return !d.ref[i].Timestamp.Before(snap.Start)
	})
	end := snap.End()
	hi = sort.Search(d.Len(), func(i int) bool {
		return !d.ref[i].Timestamp.Before(end)
	})
	return lo, hi
}
