// Package cdnsim simulates the content-distribution substrate of the
// management plane (§2, §4.3, §6): CDNs with origin storage and edge
// caches, the publisher→CDN assignment including live/VoD segregation,
// a CDN broker, and the origin-storage redundancy analysis that Fig. 18
// quantifies for syndicated content.
package cdnsim

import (
	"fmt"
	"sort"
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

// Push stores one publisher's rendition ladder for one piece of
// content. bitrateBytes maps each stored video bitrate (Kbps) to the
// bytes that rendition occupies (bitrate × duration / 8, as computed by
// the packaging layer). Pushing the same (publisher, content, bitrate)
// again replaces the copy, as re-packaging would.
func (o *Origin) Push(publisher, contentID string, bitrateBytes map[int]int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ladder := make([]int, 0, len(bitrateBytes))
	for kbps := range bitrateBytes {
		ladder = append(ladder, kbps)
	}
	sort.Ints(ladder)
	for _, kbps := range ladder {
		b := bitrateBytes[kbps]
		if b <= 0 {
			continue
		}
		key := originKey{publisher: publisher, contentID: contentID, kbps: kbps}
		if i, ok := o.index[key]; ok {
			o.bytes += b - o.copies[i].Bytes
			o.copies[i].Bytes = b
			continue
		}
		o.index[key] = len(o.copies)
		o.copies = append(o.copies, RenditionCopy{
			Publisher: publisher, ContentID: contentID, BitrateKbps: kbps, Bytes: b,
		})
		o.bytes += b
	}
}

// TotalBytes returns the bytes currently stored.
func (o *Origin) TotalBytes() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.bytes
}

// HasContent reports whether publisher stores any rendition of
// contentID here.
func (o *Origin) HasContent(publisher, contentID string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, c := range o.copies {
		if c.Publisher == publisher && c.ContentID == contentID {
			return true
		}
	}
	return false
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
	if tolerance < 0 {
		tolerance = 0
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	byContent := make(map[string][]RenditionCopy)
	for _, c := range o.copies {
		byContent[c.ContentID] = append(byContent[c.ContentID], c)
	}
	var saved int64
	for _, group := range byContent {
		sort.Slice(group, func(i, j int) bool {
			if group[i].BitrateKbps != group[j].BitrateKbps {
				return group[i].BitrateKbps < group[j].BitrateKbps
			}
			// Keep the larger copy as the cluster representative so
			// quality is preserved; ties broken by publisher for
			// determinism.
			if group[i].Bytes != group[j].Bytes {
				return group[i].Bytes > group[j].Bytes
			}
			return group[i].Publisher < group[j].Publisher
		})
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
	r := SavingsReport{
		TotalBytes: o.TotalBytes(),
		Exact:      o.DedupSavings(0),
		Tol5:       o.DedupSavings(0.05),
		Tol10:      o.DedupSavings(0.10),
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

// String summarizes the report in Fig. 18's terms.
func (r SavingsReport) String() string {
	return fmt.Sprintf("total=%dB exact=%dB(%.1f%%) 5%%=%dB(%.1f%%) 10%%=%dB(%.1f%%) integrated=%dB(%.1f%%)",
		r.TotalBytes, r.Exact, r.ExactPct, r.Tol5, r.Tol5Pct, r.Tol10, r.Tol10Pct, r.Integrated, r.IntegratedPct)
}
