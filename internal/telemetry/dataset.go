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

// colBuilder fills one DimColumn of a Dataset under construction: rows
// of the predecessor's column are copied in bulk, new rows interned.
type colBuilder struct {
	nameTable
	old  *DimColumn
	offs []int32 // final length from the start; row i is closed by writing offs[i+1]
	ids  []int32
}

// extendCol starts a column of rows rows that can take old's IDs plus
// at most newIDs more.
func extendCol(old *DimColumn, rows, newIDs int) colBuilder {
	return colBuilder{
		nameTable: extendNames(old.names, old.index),
		old:       old,
		offs:      make([]int32, rows+1),
		ids:       make([]int32, 0, len(old.ids)+newIDs),
	}
}

// copyRows makes the predecessor's rows [lo, hi) rows [at, at+hi-lo).
func (c *colBuilder) copyRows(at, lo, hi int) {
	src := c.old.offs
	shift := int32(len(c.ids)) - src[lo]
	c.ids = append(c.ids, c.old.ids[src[lo]:src[hi]]...)
	dst := c.offs[at+1 : at+1+hi-lo]
	for k, off := range src[lo+1 : hi+1] {
		dst[k] = off + shift
	}
}

// add appends one value to the row under construction.
func (c *colBuilder) add(name string) int32 {
	id, _ := c.intern(name)
	c.addID(id)
	return id
}

// addID appends an already-interned ID to the row under construction.
func (c *colBuilder) addID(id int32) { c.ids = append(c.ids, id) }

// endRow closes row at.
func (c *colBuilder) endRow(at int) { c.offs[at+1] = int32(len(c.ids)) }

// column returns the finished column. It shares nothing with the
// builder or the predecessor except name tables no new name touched,
// so a retired generation's columns are collectable, and every slice
// is exactly as long as its backing array.
func (c *colBuilder) column() *DimColumn {
	ids := c.ids
	if len(ids) < cap(ids) {
		ids = append(make([]int32, 0, len(ids)), ids...)
	}
	return &DimColumn{names: c.names, index: c.index, offs: c.offs, ids: ids}
}

// Dataset is an immutable, timestamp-sorted, read-optimized view of a
// record set: the one substrate the figure suite and the served queries
// run over. Window returns zero-copy sub-slices, per-record
// Views/ViewHours are precomputed columns, and the dimension keys the
// §4 analyses group by (publisher, protocol, platform, device model,
// CDN) are interned to small integer IDs. A Dataset is safe for
// concurrent use.
type Dataset struct {
	records   []ViewRecord
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
// slice: the columns are built beside it, the rows are not copied.
// Records are sorted by timestamp if they are not already.
func NewDataset(recs []ViewRecord) *Dataset {
	if !sort.SliceIsSorted(recs, func(i, j int) bool {
		return recs[i].Timestamp.Before(recs[j].Timestamp)
	}) {
		sort.SliceStable(recs, func(i, j int) bool {
			return recs[i].Timestamp.Before(recs[j].Timestamp)
		})
	}
	empty := &DimColumn{offs: []int32{0}}
	base := &Dataset{protocol: empty, platform: empty, cdn: empty, model: empty}
	return base.Merge(recs)
}

// Merge returns the dataset holding d's records and delta's, taking
// ownership of delta, which must be in CanonicalSort order — as d's
// records must be for the result to be. It is the epoch cut: the cost
// of comparing, hashing and interning is proportional to delta, and d's
// rows are carried over by bulk copy. A record of delta goes after the
// records of d it compares equal to.
//
// IDs d handed out mean the same in the result; names first seen in
// delta get the next IDs. That numbering can differ from the one
// NewDataset would give the same records, and no answer may depend on
// it: the analyses accumulate per ID in record order and emit by name.
// d is not modified and the result does not keep it reachable; with
// nothing to add, the result is d itself.
func (d *Dataset) Merge(delta []ViewRecord) *Dataset {
	if len(delta) == 0 {
		return d
	}
	b := newDatasetBuilder(d, delta)
	lo := 0
	for i := range delta {
		hi := lo + mergePoint(d.records[lo:], &delta[i])
		b.copyRows(lo, hi)
		b.addRow(&delta[i])
		lo = hi
	}
	b.copyRows(lo, len(d.records))
	return b.dataset()
}

// mergePoint returns how many leading records of the sorted run recs
// do not sort after r. It gallops: a delta that lands in a few places
// of a long base costs a few comparisons per landing, not a walk.
func mergePoint(recs []ViewRecord, r *ViewRecord) int {
	step := 1
	for step < len(recs) && CompareRecords(&recs[step-1], r) <= 0 {
		step *= 2
	}
	lo, hi := step/2, min(step, len(recs))
	return lo + sort.Search(hi-lo, func(i int) bool { return CompareRecords(&recs[lo+i], r) > 0 })
}

// datasetBuilder assembles a Dataset row by row, each row either
// copied from the predecessor or interned from a new record. Every
// per-record column is allocated once at its final length.
type datasetBuilder struct {
	base *Dataset
	out  *Dataset
	row  int  // rows written so far
	own  bool // out.records is the new records' own slice: the predecessor was empty

	pubs                           nameTable
	protocol, platform, cdn, model colBuilder
	modelPlatform                  []int32

	// What a record's URL and device come to is interned once per
	// distinct protocol and device model, not once per record.
	protoIDs [manifest.Progressive + 1]int32 // protocol → protocol-column ID, -1 until met
	models   map[string]modelIDs             // registered device name → its column IDs
}

// modelIDs is a registered device model's IDs in the platform and
// model columns.
type modelIDs struct{ platform, model int32 }

func newDatasetBuilder(base *Dataset, delta []ViewRecord) *datasetBuilder {
	n := len(base.records) + len(delta)
	cdns := 0
	for i := range delta {
		cdns += len(delta[i].CDNs)
	}
	b := &datasetBuilder{
		base: base,
		out: &Dataset{
			views:     make([]float64, n),
			viewHours: make([]float64, n),
			pubIDs:    make([]int32, n),
		},
		own:           len(base.records) == 0,
		pubs:          extendNames(base.pubNames, base.pubIndex),
		protocol:      extendCol(base.protocol, n, len(delta)),
		platform:      extendCol(base.platform, n, len(delta)),
		cdn:           extendCol(base.cdn, n, cdns),
		model:         extendCol(base.model, n, len(delta)),
		modelPlatform: base.modelPlatform[:len(base.modelPlatform):len(base.modelPlatform)],
		models:        make(map[string]modelIDs, len(device.Registry)),
	}
	for p := range b.protoIDs {
		b.protoIDs[p] = -1
	}
	if b.own {
		b.out.records = delta
	} else {
		b.out.records = make([]ViewRecord, n)
	}
	return b
}

// copyRows appends the predecessor's rows [lo, hi).
func (b *datasetBuilder) copyRows(lo, hi int) {
	if lo == hi {
		return
	}
	at := b.row
	copy(b.out.records[at:], b.base.records[lo:hi])
	copy(b.out.views[at:], b.base.views[lo:hi])
	copy(b.out.viewHours[at:], b.base.viewHours[lo:hi])
	copy(b.out.pubIDs[at:], b.base.pubIDs[lo:hi])
	b.protocol.copyRows(at, lo, hi)
	b.platform.copyRows(at, lo, hi)
	b.cdn.copyRows(at, lo, hi)
	b.model.copyRows(at, lo, hi)
	b.row += hi - lo
}

// addRow appends a new record.
func (b *datasetBuilder) addRow(r *ViewRecord) {
	at := b.row
	if !b.own {
		b.out.records[at] = *r
	}
	b.out.views[at] = r.Views()
	b.out.viewHours[at] = r.ViewHours()
	b.out.pubIDs[at], _ = b.pubs.intern(r.Publisher)
	b.protocol.addID(b.protocolID(manifest.InferProtocol(r.URL)))
	b.protocol.endRow(at)
	if ids, ok := b.modelIDsOf(r.Device); ok {
		b.platform.addID(ids.platform)
		b.model.addID(ids.model)
	}
	b.platform.endRow(at)
	b.model.endRow(at)
	for _, c := range r.CDNs {
		b.cdn.add(c)
	}
	b.cdn.endRow(at)
	b.row++
}

// protocolID returns p's ID in the protocol column, interning its name
// the first time the build meets p.
func (b *datasetBuilder) protocolID(p manifest.Protocol) int32 {
	if b.protoIDs[p] < 0 {
		b.protoIDs[p], _ = b.protocol.intern(p.String())
	}
	return b.protoIDs[p]
}

// modelIDsOf returns the column IDs of a registered device model,
// interning its platform and name the first time the build meets it.
// Unknown names are looked up each time and never kept, so what the
// build holds is bounded by the registry, not by its input.
func (b *datasetBuilder) modelIDsOf(name string) (modelIDs, bool) {
	if ids, ok := b.models[name]; ok {
		return ids, true
	}
	m, ok := device.ByName(name)
	if !ok {
		return modelIDs{}, false
	}
	var ids modelIDs
	ids.platform, _ = b.platform.intern(m.Platform.String())
	var added bool
	if ids.model, added = b.model.intern(m.Name); added {
		b.modelPlatform = append(b.modelPlatform, ids.platform)
	}
	b.models[name] = ids
	return ids, true
}

func (b *datasetBuilder) dataset() *Dataset {
	d := b.out
	d.pubNames, d.pubIndex = b.pubs.names, b.pubs.index
	d.protocol = b.protocol.column()
	d.platform = b.platform.column()
	d.cdn = b.cdn.column()
	d.model = b.model.column()
	d.modelPlatform = b.modelPlatform
	return d
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns record i as a read-only pointer (held by the frozen-*
// rows of docs/mutants.md, like every view below).
func (d *Dataset) Record(i int) *ViewRecord { return &d.records[i] }

// All returns every record in timestamp order as a read-only view
// (the frozen-* rows of docs/mutants.md).
func (d *Dataset) All() []ViewRecord { return d.records }

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
// device model is unknown, mirroring analytics.PlatformDim).
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
	col := &DimColumn{names: d.model.names, offs: make([]int32, 1, len(d.records)+1)}
	for i := range d.records {
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
	lo = sort.Search(len(d.records), func(i int) bool {
		return !d.records[i].Timestamp.Before(snap.Start)
	})
	end := snap.End()
	hi = sort.Search(len(d.records), func(i int) bool {
		return !d.records[i].Timestamp.Before(end)
	})
	return lo, hi
}

// Window returns the records inside the snapshot as a zero-copy
// read-only sub-slice.
func (d *Dataset) Window(snap simclock.Snapshot) []ViewRecord {
	lo, hi := d.WindowBounds(snap)
	return d.records[lo:hi]
}
