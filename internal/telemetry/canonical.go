package telemetry

import (
	"slices"
	"sort"
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

// CanonicalSort orders recs by CompareRecords in place. Because the
// order leads with the timestamp, a canonically sorted slice is also
// timestamp-sorted, so NewDataset preserves it as-is.
func CanonicalSort(recs []ViewRecord) {
	sort.Slice(recs, func(i, j int) bool { return CompareRecords(&recs[i], &recs[j]) < 0 })
}
