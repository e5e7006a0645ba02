// Package cdnsim simulates the content-distribution substrate of the
// management plane (§2, §4.3, §6): CDNs with origin storage, edge
// caches and per-ISP delivery quality, and the origin-storage
// redundancy analysis that Fig. 18 quantifies for syndicated content.
package cdnsim

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"
)

// RenditionCopy is one publisher's stored copy of one rendition of one
// piece of content at an origin. ContentID names the underlying title
// (an owner's video ID): syndicated copies of the same title share a
// ContentID even though each syndicator publishes it under its own
// video ID, which is what makes cross-publisher dedup well-defined.
type RenditionCopy struct {
	Publisher   string
	ContentID   string
	BitrateKbps int
	Bytes       int64
}

// Origin is a CDN origin store to which publishers proactively push
// packaged content (§6: publishers "proactively push video content to
// a CDN origin server which serves cache misses from CDN edge
// servers"). It is safe for concurrent use.
type Origin struct {
	mu     sync.RWMutex
	copies []RenditionCopy
	index  map[originKey]int // (publisher, content, bitrate) → copies idx
	bytes  int64
}

type originKey struct {
	publisher string
	contentID string
	kbps      int
}

// NewOrigin returns an empty origin store.
func NewOrigin() *Origin { return &Origin{index: make(map[originKey]int)} }

// Rendition is one rendition of a title as an origin stores it: its
// video bitrate and the bytes it occupies.
type Rendition struct {
	Kbps  int
	Bytes int64
}

// SortLadder returns a bitrate → bytes ladder as renditions in
// ascending bitrate, the order PushLadder stores them in. A publisher
// whose every title has the same ladder sorts it once.
func SortLadder(bitrateBytes map[int]int64) []Rendition {
	ladder := make([]Rendition, 0, len(bitrateBytes))
	for kbps, b := range bitrateBytes {
		ladder = append(ladder, Rendition{Kbps: kbps, Bytes: b})
	}
	slices.SortFunc(ladder, func(a, b Rendition) int { return cmp.Compare(a.Kbps, b.Kbps) })
	return ladder
}

// Reserve makes room for n more stored copies, so that filling an
// origin of known size does not grow its index one key at a time.
func (o *Origin) Reserve(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	index := make(map[originKey]int, len(o.index)+n)
	maps.Copy(index, o.index)
	o.index = index
	o.copies = slices.Grow(o.copies, n)
}

// PushLadder stores one publisher's rendition ladder for one piece of
// content, as SortLadder sorted it: each rendition's video bitrate
// (Kbps) and the bytes it occupies (bitrate × duration / 8, as computed
// by the packaging layer). Pushing the same (publisher, content,
// bitrate) again replaces the copy, as re-packaging would. Renditions
// of no bytes are not stored.
func (o *Origin) PushLadder(publisher, contentID string, ladder []Rendition) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range ladder {
		if r.Bytes <= 0 {
			continue
		}
		key := originKey{publisher: publisher, contentID: contentID, kbps: r.Kbps}
		if i, ok := o.index[key]; ok {
			o.bytes += r.Bytes - o.copies[i].Bytes
			o.copies[i].Bytes = r.Bytes
			continue
		}
		o.index[key] = len(o.copies)
		o.copies = append(o.copies, RenditionCopy{
			Publisher: publisher, ContentID: contentID, BitrateKbps: r.Kbps, Bytes: r.Bytes,
		})
		o.bytes += r.Bytes
	}
}

// TotalBytes returns the bytes currently stored.
func (o *Origin) TotalBytes() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.bytes
}

// DedupSavings returns the bytes this origin would reclaim by removing
// "redundant copies of chunks with the same, or similar bitrates (those
// within a small tolerance factor)" (§6). For each content item, the
// stored renditions across all publishers are clustered greedily in
// ascending bitrate order: a rendition is redundant when its bitrate is
// within tolerance (e.g. 0.05 = 5%) of a cluster representative, and
// the smaller copy of any merged pair is the one reclaimed. tolerance 0
// deduplicates only exact bitrate matches.
func (o *Origin) DedupSavings(tolerance float64) int64 {
	return o.dedup(max(tolerance, 0))[0]
}

// dedup sorts a copy of the stored copies once and returns what
// clustering each content item's renditions reclaims under each of the
// tolerances, in their order.
func (o *Origin) dedup(tolerances ...float64) []int64 {
	o.mu.RLock()
	sorted := slices.Clone(o.copies)
	o.mu.RUnlock()
	// By content, then in the order the clustering visits a content's
	// renditions: ascending bitrate, the larger copy first so it becomes
	// the cluster representative and quality is preserved, ties broken
	// by publisher for determinism.
	slices.SortFunc(sorted, func(a, b RenditionCopy) int {
		if c := strings.Compare(a.ContentID, b.ContentID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.BitrateKbps, b.BitrateKbps); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		return strings.Compare(a.Publisher, b.Publisher)
	})
	saved := make([]int64, len(tolerances))
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].ContentID == sorted[0].ContentID {
			n++
		}
		for k, tol := range tolerances {
			saved[k] += clusterSavings(sorted[:n], tol)
		}
		sorted = sorted[n:]
	}
	return saved
}

// clusterSavings clusters one content item's renditions, sorted as
// dedup sorts them, and returns the bytes the merges reclaim.
func clusterSavings(group []RenditionCopy, tolerance float64) int64 {
	var saved int64
	repBitrate := -1 << 30
	var repBytes int64
	for _, c := range group {
		if repBitrate > 0 && float64(c.BitrateKbps) <= float64(repBitrate)*(1+tolerance) {
			// Redundant with the current cluster representative:
			// reclaim the smaller of the two copies.
			if c.Bytes < repBytes {
				saved += c.Bytes
			} else {
				saved += repBytes
				repBytes = c.Bytes
			}
			continue
		}
		repBitrate, repBytes = c.BitrateKbps, c.Bytes
	}
	return saved
}

// IntegratedSavings returns the bytes reclaimed under integrated
// syndication (§6): syndicators use the owner's manifest and CDN copy,
// so every copy stored by a publisher other than the content's owner is
// removed outright. ownerOf maps ContentID → owning publisher; content
// without an entry is treated as owned by whoever stored it.
func (o *Origin) IntegratedSavings(ownerOf map[string]string) int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var saved int64
	for _, c := range o.copies {
		owner, ok := ownerOf[c.ContentID]
		if ok && c.Publisher != owner {
			saved += c.Bytes
		}
	}
	return saved
}

// SavingsReport bundles the Fig. 18 quantities for one origin.
type SavingsReport struct {
	TotalBytes    int64
	Exact         int64 // tolerance 0
	Tol5          int64 // 5% tolerance
	Tol10         int64 // 10% tolerance
	Integrated    int64
	ExactPct      float64
	Tol5Pct       float64
	Tol10Pct      float64
	IntegratedPct float64
}

// Savings computes the full Fig. 18 sweep for this origin.
func (o *Origin) Savings(ownerOf map[string]string) SavingsReport {
	dedup := o.dedup(0, 0.05, 0.10)
	r := SavingsReport{
		TotalBytes: o.TotalBytes(),
		Exact:      dedup[0],
		Tol5:       dedup[1],
		Tol10:      dedup[2],
		Integrated: o.IntegratedSavings(ownerOf),
	}
	if r.TotalBytes > 0 {
		t := float64(r.TotalBytes)
		r.ExactPct = 100 * float64(r.Exact) / t
		r.Tol5Pct = 100 * float64(r.Tol5) / t
		r.Tol10Pct = 100 * float64(r.Tol10) / t
		r.IntegratedPct = 100 * float64(r.Integrated) / t
	}
	return r
}
