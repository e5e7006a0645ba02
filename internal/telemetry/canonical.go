package telemetry

import (
	"runtime"
	"slices"
	"strings"
	"sync"
)

// CompareRecords is a total order on view records: timestamp first,
// then every identifying and measure field. Its purpose is serving-
// plane determinism — records that arrive interleaved across requests
// sort into one canonical sequence, so a generation built from a
// record set is identical no matter the arrival order, and float
// accumulations over it are reproducible to the last ulp. Records that
// compare equal are field-for-field interchangeable, so their relative
// order cannot affect any aggregate.
func CompareRecords(a, b *ViewRecord) int {
	if c := a.Timestamp.Compare(b.Timestamp); c != 0 {
		return c
	}
	if c := strings.Compare(a.Publisher, b.Publisher); c != 0 {
		return c
	}
	if c := strings.Compare(a.VideoID, b.VideoID); c != 0 {
		return c
	}
	if c := strings.Compare(a.URL, b.URL); c != 0 {
		return c
	}
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	if c := strings.Compare(a.OS, b.OS); c != 0 {
		return c
	}
	if c := strings.Compare(a.UserAgent, b.UserAgent); c != 0 {
		return c
	}
	if c := strings.Compare(a.SDK, b.SDK); c != 0 {
		return c
	}
	if c := strings.Compare(a.SDKVersion, b.SDKVersion); c != 0 {
		return c
	}
	if c := strings.Compare(a.ISP, b.ISP); c != 0 {
		return c
	}
	if c := strings.Compare(a.ConnType, b.ConnType); c != 0 {
		return c
	}
	if c := strings.Compare(a.Geo, b.Geo); c != 0 {
		return c
	}
	if c := strings.Compare(a.ContentID, b.ContentID); c != 0 {
		return c
	}
	if c := strings.Compare(a.Owner, b.Owner); c != 0 {
		return c
	}
	if c := compareBool(a.Live, b.Live); c != 0 {
		return c
	}
	if c := compareBool(a.Syndicated, b.Syndicated); c != 0 {
		return c
	}
	if c := compareBool(a.Failed, b.Failed); c != 0 {
		return c
	}
	if c := compareFloat(a.ViewSec, b.ViewSec); c != 0 {
		return c
	}
	if c := compareFloat(a.AvgBitrateKbps, b.AvgBitrateKbps); c != 0 {
		return c
	}
	if c := compareFloat(a.RebufferSec, b.RebufferSec); c != 0 {
		return c
	}
	if c := compareFloat(a.Weight, b.Weight); c != 0 {
		return c
	}
	if c := slices.Compare(a.CDNs, b.CDNs); c != 0 {
		return c
	}
	return slices.Compare(a.Bitrates, b.Bitrates)
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// sortKey is what a canonical sort moves: a record's instant and which
// row the record is. Seconds and nanoseconds, not UnixNano, so that
// every instant a decoder can produce — the zero time, years 0000 to
// 9999 — keeps the order Timestamp.Compare gives it. 16 bytes against a
// row's 328. The keys hold wall-clock readings: records stamped
// in-process with a monotonic reading sort by their wall clock.
type sortKey struct {
	sec  int64
	nsec int32
	row  int32
}

func keyOf(r *ViewRecord, row int) sortKey {
	t := r.Timestamp
	return sortKey{sec: t.Unix(), nsec: int32(t.Nanosecond()), row: int32(row)}
}

// rowSet numbers the rows a sort reads 0, 1, …: one slice's rows, or
// the rows of several parts one after another.
type rowSet struct {
	rows   []ViewRecord   // the only part; nil when there are several
	parts  [][]ViewRecord // the non-empty parts, when there are several
	starts []int          // parts[p] holds rows [starts[p], starts[p+1])
}

// newRowSet numbers the rows of parts and returns how many there are.
func newRowSet(parts [][]ViewRecord) (rowSet, int) {
	var s rowSet
	n := 0
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		s.parts = append(s.parts, p)
		s.starts = append(s.starts, n)
		n += len(p)
	}
	if len(s.parts) == 1 {
		return rowSet{rows: s.parts[0]}, n
	}
	s.starts = append(s.starts, n)
	return s, n
}

// partOf returns the index of the part holding row.
func (s *rowSet) partOf(row int) int {
	lo, hi := 0, len(s.parts) // starts[lo] <= row < starts[hi]
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if s.starts[m] <= row {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

func (s *rowSet) at(row int32) *ViewRecord {
	if s.parts == nil {
		return &s.rows[row]
	}
	p := s.partOf(int(row))
	return &s.parts[p][int(row)-s.starts[p]]
}

// order returns the comparison of two keys that orders them as
// CompareRecords orders their rows. The instant decides almost every
// comparison, in the function's own body; only two keys of one instant
// call out to read their rows. (A method value would add a call to
// every comparison.)
func (s *rowSet) order() func(a, b sortKey) int {
	return func(a, b sortKey) int {
		switch {
		case a.sec < b.sec, a.sec == b.sec && a.nsec < b.nsec:
			return -1
		case a.sec > b.sec, a.nsec > b.nsec:
			return 1
		}
		return s.compareRows(a.row, b.row)
	}
}

func (s *rowSet) compareRows(a, b int32) int {
	return CompareRecords(s.at(a), s.at(b))
}

// sortRun writes the keys of rows [lo, hi) to keys[lo:hi] and sorts
// them.
func (s *rowSet) sortRun(keys []sortKey, lo, hi int) {
	if s.parts == nil {
		for i := lo; i < hi; i++ {
			keys[i] = keyOf(&s.rows[i], i)
		}
	} else {
		for p, i := s.partOf(lo), lo; i < hi; p++ {
			part := s.parts[p][i-s.starts[p] : min(len(s.parts[p]), hi-s.starts[p])]
			for k := range part {
				keys[i+k] = keyOf(&part[k], i+k)
			}
			i += len(part)
		}
	}
	slices.SortFunc(keys[lo:hi], s.order())
}

// merge merges the sorted runs a and b into dst, a's key first of two
// that compare equal.
func (s *rowSet) merge(dst, a, b []sortKey) {
	order := s.order()
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if order(b[j], a[i]) < 0 {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sortedKeys returns the keys of s's n rows in canonical order. With
// too few rows for two workers (workers), they are sorted on the calling
// goroutine and the key array is the only allocation.
func sortedKeys(s rowSet, n int) []sortKey {
	keys := make([]sortKey, n)
	if w := workers(n); w > 1 {
		return sortRuns(s, keys, w)
	}
	s.sortRun(keys, 0, n)
	return keys
}

// sortRuns sorts keys on w workers: each builds and sorts the keys of
// one contiguous range of rows, and the sorted runs are then merged
// pairwise, the pairs of a round side by side, until one is left. It
// returns keys or the one scratch array, whichever holds the result.
func sortRuns(s rowSet, keys []sortKey, w int) []sortKey {
	n := len(keys)
	bounds := make([]int, w+1)
	for k := range bounds {
		bounds[k], _ = span(n, w, k)
	}
	parallel(w, func(k int) { s.sortRun(keys, bounds[k], bounds[k+1]) })
	scratch := make([]sortKey, n)
	for runs := w; runs > 1; runs = (runs + 1) / 2 {
		parallel((runs+1)/2, func(k int) {
			lo, mid, hi := bounds[2*k], bounds[min(2*k+1, runs)], bounds[min(2*k+2, runs)]
			s.merge(scratch[lo:hi], keys[lo:mid], keys[mid:hi])
		})
		for k := 0; k <= (runs+1)/2; k++ {
			bounds[k] = bounds[min(2*k, runs)]
		}
		keys, scratch = scratch, keys
	}
	return keys
}

// CanonicalSort orders recs by CompareRecords in place. Because the
// order leads with the timestamp, a canonically sorted slice is also
// timestamp-sorted.
//
// The sort runs over one 16-byte key per record and reads the rows
// themselves only to order two records of the same instant; the keys
// are sorted on GOMAXPROCS workers when there are enough of them
// (sortRuns). The rows are then put in place by following the
// permutation's cycles, each row moved once.
func CanonicalSort(recs []ViewRecord) {
	keys := sortedKeys(rowSet{rows: recs}, len(recs))
	// keys[i].row is the row that belongs at i. Walk each cycle once,
	// marking a position settled by pointing its key at itself.
	for i := range keys {
		if int(keys[i].row) == i {
			continue
		}
		first := recs[i]
		at := i
		for {
			from := int(keys[at].row)
			keys[at].row = int32(at)
			if from == i {
				recs[at] = first
				break
			}
			recs[at] = recs[from]
			at = from
		}
	}
}

// Gather returns pointers to the records of parts in CanonicalSort
// order, in one new slice of exactly their number: a cut's pending
// batches become one sorted delta without a row being copied. The keys
// are sorted as CanonicalSort sorts them, and each row's pointer is
// then written once, on as many workers, each filling one contiguous
// range of the result. The parts are only read, and may be in any order
// and overlap in time; the result points into them, so their rows must
// not be written while it is in use.
func Gather(parts [][]ViewRecord) []*ViewRecord {
	s, n := newRowSet(parts)
	keys := sortedKeys(s, n)
	out := make([]*ViewRecord, n)
	w := workers(n)
	parallel(w, func(k int) {
		lo, hi := span(n, w, k)
		for i := lo; i < hi; i++ {
			out[i] = s.at(keys[i].row)
		}
	})
	return out
}

// minRowsPerWorker is how many rows a sort, gather or freeze gives each
// worker at least. On two cores a freeze gains from a second worker from
// about 4,000 rows, and a gather, which writes one pointer a row, barely
// at all (DESIGN.md §8 has the sweep); the margin keeps a serve_mixed
// warm cut (about 2,500 records) on one goroutine, off the core a query
// is using: two workers take 8,192 rows.
const minRowsPerWorker = 4096

// workers returns how many workers n rows are split over: at most
// GOMAXPROCS, and at least minRowsPerWorker rows each unless there is
// only one.
func workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minRowsPerWorker))
}

// span returns the k-th of w contiguous ranges [lo, hi) that split
// [0, n) as evenly as they can.
func span(n, w, k int) (lo, hi int) { return k * n / w, (k + 1) * n / w }

// parallel calls f(0), …, f(w−1), each on its own goroutine except
// f(0), which runs on the caller, and returns once all have returned.
func parallel(w int, f func(k int)) {
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			f(k)
		}(k)
	}
	f(0)
	wg.Wait()
}
