package analytics

import (
	"sort"

	"vmp/internal/telemetry"
)

// CrossTab is a two-dimensional view-hour breakdown, e.g. protocol ×
// platform: the kind of slice-and-dice the dataset supports ("we can
// examine, for example, the number of view-hours of a publisher's
// content delivered from a given CDN, over HLS, to iPhones", §3).
type CrossTab struct {
	RowKeys []string
	ColKeys []string
	// ViewHours[row][col] holds absolute view-hours.
	ViewHours map[string]map[string]float64
	Total     float64
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

// At returns the absolute view-hours in cell (row, col).
func (ct *CrossTab) At(row, col string) float64 {
	m, ok := ct.ViewHours[row]
	if !ok {
		return 0
	}
	return m[col]
}

// RowShare returns cell (row, col) as a fraction of the row's total —
// e.g. "what fraction of iPhone view-hours used HLS".
func (ct *CrossTab) RowShare(row, col string) float64 {
	m, ok := ct.ViewHours[row]
	if !ok {
		return 0
	}
	total := 0.0
	for _, col := range sortedKeys(m) {
		total += m[col]
	}
	if total == 0 {
		return 0
	}
	return m[col] / total
}
