package obs

// This file is the exposition half of the self-measurement plane:
// Prometheus text format (version 0.0.4) rendered from the same
// Snapshot that /v1/metrics serializes as JSON, so external scrapers
// and in-process consumers always read the same values. The rendering
// is byte-stable for a given snapshot: families group by kind
// (counters, then gauges, then histograms), names sort within each
// kind, bucket lines follow ascending bounds, and floats format with
// strconv's shortest round-trip representation.

import (
	"sort"
	"strconv"
)

// ContentTypeProm is the Prometheus text exposition content type.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// promName maps a registry metric name onto the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every other byte becomes '_', and
// a leading digit gets a '_' prefix. Registry names are already clean
// identifiers, so in practice this is the identity function — the
// sanitizer exists so an unusual name degrades to a legal one instead
// of corrupting the exposition.
func promName(s string) string {
	ok := true
	for i := 0; i < len(s); i++ {
		if !promNameByte(s[i], i == 0) {
			ok = false
			break
		}
	}
	if ok && s != "" {
		return s
	}
	b := make([]byte, 0, len(s)+1)
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		b = append(b, '_')
	}
	for i := 0; i < len(s); i++ {
		if promNameByte(s[i], false) {
			b = append(b, s[i])
		} else {
			b = append(b, '_')
		}
	}
	return string(b)
}

// promNameByte reports whether c is legal in a metric name (first
// restricts to the leading-character grammar).
func promNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// promFloat renders a float the one canonical way.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// AppendProm renders snap in the Prometheus text exposition format,
// appending to b. The output is byte-stable for a given snapshot.
func AppendProm(b []byte, snap Snapshot) []byte {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		b = append(b, "# TYPE "...)
		b = append(b, n...)
		b = append(b, " counter\n"...)
		b = append(b, n...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, snap.Counters[name], 10)
		b = append(b, '\n')
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		b = append(b, "# TYPE "...)
		b = append(b, n...)
		b = append(b, " gauge\n"...)
		b = append(b, n...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, snap.Gauges[name], 10)
		b = append(b, '\n')
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		n := promName(name)
		b = append(b, "# TYPE "...)
		b = append(b, n...)
		b = append(b, " histogram\n"...)
		// Buckets are cumulative in the exposition format; the
		// registry's are not, so fold as we emit.
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			b = append(b, n...)
			b = append(b, `_bucket{le="`...)
			b = append(b, promFloat(bound)...)
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		b = append(b, n...)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendInt(b, h.Count, 10)
		b = append(b, '\n')
		b = append(b, n...)
		b = append(b, "_sum "...)
		b = append(b, promFloat(h.Sum)...)
		b = append(b, '\n')
		b = append(b, n...)
		b = append(b, "_count "...)
		b = strconv.AppendInt(b, h.Count, 10)
		b = append(b, '\n')
	}
	return b
}
