package telemetry

import (
	"cmp"
	"slices"
	"strings"
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

// sortKey is what CanonicalSort moves while sorting: a record's instant
// and where the record sits. Seconds and nanoseconds, not UnixNano, so
// that every instant a decoder can produce — the zero time, years 0000
// to 9999 — keeps the order Timestamp.Compare gives it. 16 bytes
// against a row's 328.
type sortKey struct {
	sec  int64
	nsec int32
	row  int32
}

// CanonicalSort orders recs by CompareRecords in place. Because the
// order leads with the timestamp, a canonically sorted slice is also
// timestamp-sorted, so NewDataset preserves it as-is.
//
// The timestamp decides almost every comparison, so the sort runs over
// one 16-byte key per record and reads the rows themselves only to
// order two records of the same instant; the rows are then put in
// place by following the permutation's cycles, each row moved once.
// The keys hold wall-clock readings: records stamped in-process with a
// monotonic reading sort by their wall clock.
func CanonicalSort(recs []ViewRecord) {
	keys := make([]sortKey, len(recs))
	for i := range recs {
		t := recs[i].Timestamp
		keys[i] = sortKey{sec: t.Unix(), nsec: int32(t.Nanosecond()), row: int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
			return c
		}
		return CompareRecords(&recs[a.row], &recs[b.row])
	})
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
