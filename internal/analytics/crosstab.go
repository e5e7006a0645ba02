package analytics

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
