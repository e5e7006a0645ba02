package telemetry

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

// frozenStore builds a store from out-of-order records spanning two
// snapshot windows.
func frozenStore() (*Store, simclock.Schedule) {
	sched := simclock.MakeSchedule(14, 2)[:2]
	r1 := rec("p1", 15, 3600)
	r1.URL = "http://cdn-b/p/v2.mpd"
	r1.CDNs = []string{"B", "C"}
	r2 := rec("p2", 0, 1800)
	r2.Weight = 4
	r3 := rec("p1", 1, 7200)
	r3.Device = "iPhone"
	return NewStore([]ViewRecord{r1, r2, r3}), sched // newest first: the store must order them
}

func TestFreezeSortedAndColumns(t *testing.T) {
	s, _ := frozenStore()
	ds := NewDataset(s.All())
	if ds.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", ds.Len(), s.Len())
	}
	if ds.Record(0) != &s.All()[0] {
		t.Fatal("the dataset copied the store's rows: a study must hold one row array")
	}
	for i := 1; i < ds.Len(); i++ {
		if ds.Record(i).Timestamp.Before(ds.Record(i - 1).Timestamp) {
			t.Fatalf("records not sorted at %d", i)
		}
	}
	for i := 0; i < ds.Len(); i++ {
		r := ds.Record(i)
		if got := ds.ViewsAt(i); got != r.Views() {
			t.Errorf("ViewsAt(%d) = %v, want %v", i, got, r.Views())
		}
		if got := ds.ViewHoursAt(i); got != r.ViewHours() {
			t.Errorf("ViewHoursAt(%d) = %v, want %v", i, got, r.ViewHours())
		}
		if got := ds.PublisherName(ds.PublisherID(i)); got != r.Publisher {
			t.Errorf("publisher round-trip at %d: %q != %q", i, got, r.Publisher)
		}
	}
	if ds.NumPublishers() != 2 {
		t.Errorf("NumPublishers = %d, want 2", ds.NumPublishers())
	}
	if _, ok := ds.PublisherIDOf("p2"); !ok {
		t.Error("PublisherIDOf(p2) missing")
	}
	if _, ok := ds.PublisherIDOf("nope"); ok {
		t.Error("PublisherIDOf invented a publisher")
	}
	// Protocol column: .m3u8 → HLS, .mpd → DASH.
	proto := ds.ProtocolCol()
	byName := map[string]int{}
	for i := 0; i < ds.Len(); i++ {
		for _, id := range proto.IDs(i) {
			byName[proto.Name(id)]++
		}
	}
	if byName["HLS"] != 2 || byName["DASH"] != 1 {
		t.Errorf("protocol counts = %v, want HLS:2 DASH:1", byName)
	}
	// CDN column keeps multi-CDN views.
	cdn := ds.CDNCol()
	last := cdn.IDs(ds.Len() - 1) // the day-15 record
	if len(last) != 2 {
		t.Errorf("multi-CDN record has %d CDN ids, want 2", len(last))
	}
}

func TestDatasetWindowMatchesStore(t *testing.T) {
	s, sched := frozenStore()
	ds := NewDataset(s.All())
	for _, snap := range sched {
		var want []ViewRecord
		for _, r := range s.All() {
			if !r.Timestamp.Before(snap.Start) && r.Timestamp.Before(snap.End()) {
				want = append(want, r)
			}
		}
		lo, hi := ds.WindowBounds(snap)
		if got := ds.All()[lo:hi]; len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("window %s: %d records, want the store's %d inside it", snap.Label(), len(got), len(want))
		}
	}
}

func TestDatasetWindowZeroAlloc(t *testing.T) {
	s, sched := frozenStore()
	ds := NewDataset(s.All())
	snap := sched[0]
	allocs := testing.AllocsPerRun(100, func() {
		if lo, hi := ds.WindowBounds(snap); lo == hi {
			t.Fatal("empty window")
		}
		// The per-row accessors the scans are built from, and the two
		// measures the columns are filled with.
		if r := ds.Record(0); r.Views() != ds.ViewsAt(0) || r.ViewHours() != ds.ViewHoursAt(0) || ds.PublisherID(0) < 0 {
			t.Fatal("row 0's columns are not its record's measures")
		}
	})
	if allocs > 0 {
		t.Errorf("Dataset.WindowBounds and the row accessors allocate %.1f objects/op, want 0", allocs)
	}
}

// serialMerge is Merge as it was before the freeze ran on ranges: one
// builder walking the result row by row, copying a run of d's rows or
// interning one new record. It is the oracle the range freeze is held
// to, IDs included.
func serialMerge(d *Dataset, delta []ViewRecord) *Dataset {
	if len(delta) == 0 {
		return d
	}
	b := newSerialBuilder(d, delta)
	lo := 0
	for i := range delta {
		hi := d.mergePoint(lo, &delta[i])
		b.copyRows(lo, hi)
		b.addRow(&delta[i])
		lo = hi
	}
	b.copyRows(lo, d.Len())
	return b.dataset()
}

// serialNewDataset is NewDataset by the serial builder, for records
// already in canonical order.
func serialNewDataset(recs []ViewRecord) *Dataset {
	empty := &DimColumn{offs: []int32{0}}
	return serialMerge(&Dataset{protocol: empty, platform: empty, cdn: empty, model: empty}, recs)
}

// serialCol fills one DimColumn of a Dataset under construction: rows
// of the predecessor's column are copied in bulk, new rows interned.
type serialCol struct {
	nameTable
	old  *DimColumn
	offs []int32 // final length from the start; row i is closed by writing offs[i+1]
	ids  []int32
}

// extendSerialCol starts a column of rows rows that can take old's IDs
// plus at most newIDs more.
func extendSerialCol(old *DimColumn, rows, newIDs int) serialCol {
	return serialCol{
		nameTable: extendNames(old.names, old.index),
		old:       old,
		offs:      make([]int32, rows+1),
		ids:       make([]int32, 0, len(old.ids)+newIDs),
	}
}

// copyRows makes the predecessor's rows [lo, hi) rows [at, at+hi-lo).
func (c *serialCol) copyRows(at, lo, hi int) {
	src := c.old.offs
	shift := int32(len(c.ids)) - src[lo]
	c.ids = append(c.ids, c.old.ids[src[lo]:src[hi]]...)
	dst := c.offs[at+1 : at+1+hi-lo]
	for k, off := range src[lo+1 : hi+1] {
		dst[k] = off + shift
	}
}

// add appends one value to the row under construction.
func (c *serialCol) add(name string) {
	id, _ := c.intern(name)
	c.addID(id)
}

// addID appends an already-interned ID to the row under construction.
func (c *serialCol) addID(id int32) { c.ids = append(c.ids, id) }

// endRow closes row at.
func (c *serialCol) endRow(at int) { c.offs[at+1] = int32(len(c.ids)) }

// column returns the finished column, every slice exactly as long as
// its backing array.
func (c *serialCol) column() *DimColumn {
	ids := c.ids
	if len(ids) < cap(ids) {
		ids = append(make([]int32, 0, len(ids)), ids...)
	}
	return &DimColumn{names: c.names, index: c.index, offs: c.offs, ids: ids}
}

// serialBuilder assembles a Dataset row by row, each row either copied
// from the predecessor or interned from a new record.
type serialBuilder struct {
	base *Dataset
	out  *Dataset
	row  int // rows written so far

	pubs                           nameTable
	protocol, platform, cdn, model serialCol
	modelPlatform                  []int32

	protoIDs [manifest.Progressive + 1]int32 // protocol → protocol-column ID, -1 until met
	models   map[string]modelIDs             // registered device name → its column IDs
}

func newSerialBuilder(base *Dataset, delta []ViewRecord) *serialBuilder {
	n := base.Len() + len(delta)
	cdns := 0
	for i := range delta {
		cdns += len(delta[i].CDNs)
	}
	b := &serialBuilder{
		base: base,
		out: &Dataset{
			ref:       make([]*ViewRecord, n),
			views:     make([]float64, n),
			viewHours: make([]float64, n),
			pubIDs:    make([]int32, n),
		},
		pubs:          extendNames(base.pubNames, base.pubIndex),
		protocol:      extendSerialCol(base.protocol, n, len(delta)),
		platform:      extendSerialCol(base.platform, n, len(delta)),
		cdn:           extendSerialCol(base.cdn, n, cdns),
		model:         extendSerialCol(base.model, n, len(delta)),
		modelPlatform: base.modelPlatform[:len(base.modelPlatform):len(base.modelPlatform)],
		models:        make(map[string]modelIDs, len(device.Registry)),
	}
	for p := range b.protoIDs {
		b.protoIDs[p] = -1
	}
	return b
}

// copyRows appends the predecessor's rows [lo, hi).
func (b *serialBuilder) copyRows(lo, hi int) {
	if lo == hi {
		return
	}
	at := b.row
	copy(b.out.ref[at:], b.base.ref[lo:hi])
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
func (b *serialBuilder) addRow(r *ViewRecord) {
	at := b.row
	b.out.ref[at] = r
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

func (b *serialBuilder) protocolID(p manifest.Protocol) int32 {
	if b.protoIDs[p] < 0 {
		b.protoIDs[p], _ = b.protocol.intern(p.String())
	}
	return b.protoIDs[p]
}

func (b *serialBuilder) modelIDsOf(name string) (modelIDs, bool) {
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

func (b *serialBuilder) dataset() *Dataset {
	d := b.out
	d.pubNames, d.pubIndex = b.pubs.names, b.pubs.index
	d.protocol = b.protocol.column()
	d.platform = b.platform.column()
	d.cdn = b.cdn.column()
	d.model = b.model.column()
	d.modelPlatform = b.modelPlatform
	return d
}

// datasetDiff returns the first way got differs from want, or "": the
// same rows, compared through All, every column deep-equal — IDs, names, offsets — and every
// names slice and modelPlatform of the same capacity, so that the next
// merge onto either grows it alike.
func datasetDiff(got, want *Dataset) string {
	pairs := []struct {
		name      string
		got, want any
	}{
		{"records", got.All(), want.All()},
		{"views", got.views, want.views},
		{"viewHours", got.viewHours, want.viewHours},
		{"pubNames", got.pubNames, want.pubNames},
		{"pubIndex", got.pubIndex, want.pubIndex},
		{"pubIDs", got.pubIDs, want.pubIDs},
		{"protocol", got.protocol, want.protocol},
		{"platform", got.platform, want.platform},
		{"cdn", got.cdn, want.cdn},
		{"model", got.model, want.model},
		{"modelPlatform", got.modelPlatform, want.modelPlatform},
		{"names capacities", nameCaps(got), nameCaps(want)},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.got, p.want) {
			return fmt.Sprintf("%s differ:\n got  %v\n want %v", p.name, clipAny(p.got), clipAny(p.want))
		}
	}
	return ""
}

func nameCaps(d *Dataset) []int {
	return []int{cap(d.pubNames), cap(d.protocol.names), cap(d.platform.names), cap(d.cdn.names),
		cap(d.model.names), cap(d.modelPlatform)}
}

func clipAny(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 400 {
		s = s[:400] + "…"
	}
	return s
}

// freezeCases are the inputs the range freeze is held to the serial
// builder on, each big enough to split four ways. Devices cycle through
// registered models and an unknown one, CDN lists through none, one and
// two; the last rows bring a publisher, CDN, device and protocol no
// earlier row has, so only the last range meets them.
func freezeCases() (base []ViewRecord, deltas map[string][]ViewRecord) {
	n := 4*minRowsPerWorker + 5
	mk := func(round, n int) []ViewRecord {
		recs := make([]ViewRecord, n)
		for i := range recs {
			r := rec(fmt.Sprintf("p%d", (i*7+round)%23), i%60, float64(30+i%500))
			r.VideoID = fmt.Sprintf("v-%d-%d", round, i)
			r.Device = []string{"Roku", "iPhone", "Toaster", "HTML5", "iPad"}[i%5]
			r.CDNs = [][]string{nil, {"A"}, {"A", "B"}, {"B"}}[i%4]
			r.Weight = float64(i % 3)
			recs[i] = r
		}
		return recs
	}
	last := mk(0, n)
	for i := n - 3; i < n; i++ {
		last[i].Timestamp = simclock.DayTime(61)
		last[i].Publisher = "late"
		last[i].CDNs = []string{"late-cdn", "A"}
		last[i].Device = "Flash"
		last[i].URL = "http://cdn-late/p/v.mpd"
	}
	unknown := mk(1, n)
	for i := range unknown {
		unknown[i].Device = "Toaster"
		unknown[i].CDNs = nil
	}
	deltas = map[string][]ViewRecord{
		"new names in the last range": last,
		"unknown devices, no CDNs":    unknown,
		"one range":                   mk(2, minRowsPerWorker/2),
	}
	for _, recs := range deltas {
		CanonicalSort(recs)
	}
	base = mk(3, 3*minRowsPerWorker)
	for i := range base {
		base[i].Publisher = fmt.Sprintf("b%d", i%11)
	}
	CanonicalSort(base)
	return base, deltas
}

// exactCopy copies recs into a slice of exactly their number, as a
// cut's delta is.
func exactCopy(recs []ViewRecord) []ViewRecord {
	out := make([]ViewRecord, len(recs))
	copy(out, recs)
	return out
}

// TestFreezeMatchesSerialBuilder holds the range freeze to the serial
// builder at one, two and four workers: NewDataset from empty, and a
// Merge into a non-empty base whose names the delta partly shares.
func TestFreezeMatchesSerialBuilder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base, deltas := freezeCases()
	for name, delta := range deltas {
		wantNew := serialNewDataset(exactCopy(delta))
		baseDS := serialNewDataset(exactCopy(base))
		wantMerged := serialMerge(baseDS, exactCopy(delta))
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := NewDataset(exactCopy(delta))
			if diff := datasetDiff(got, wantNew); diff != "" {
				t.Fatalf("%s, GOMAXPROCS %d, NewDataset: %s", name, procs, diff)
			}
			requireExactColumns(t, got)
			merged := baseDS.Merge(pointers(exactCopy(delta)))
			if diff := datasetDiff(merged, wantMerged); diff != "" {
				t.Fatalf("%s, GOMAXPROCS %d, Merge into %d records: %s", name, procs, len(base), diff)
			}
			requireExactColumns(t, merged)
		}
	}
}

// TestNewDatasetSortsCanonically: records out of canonical order —
// one instant's records in reverse, which a timestamp-only stable sort
// would leave as they are — come out in CanonicalSort order, as a
// Merge needs them, at one worker and at several.
func TestNewDatasetSortsCanonically(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	_, deltas := freezeCases()
	sorted := deltas["new names in the last range"]
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []int{1, len(sorted) / 2, len(sorted) - 1} {
			recs := exactCopy(sorted)
			recs[k-1], recs[k] = recs[k], recs[k-1]
			if CompareRecords(&recs[k-1], &recs[k]) <= 0 {
				t.Fatalf("rows %d and %d compare equal; pick records that differ", k-1, k)
			}
			if diff := datasetDiff(NewDataset(recs), serialNewDataset(exactCopy(sorted))); diff != "" {
				t.Fatalf("GOMAXPROCS %d, rows %d and %d swapped: %s", procs, k-1, k, diff)
			}
		}
	}
}
