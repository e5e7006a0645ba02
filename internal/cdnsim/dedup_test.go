package cdnsim

import (
	"fmt"
	"sort"
	"testing"

	"vmp/internal/dist"
)

// dedupSavingsOracle is DedupSavings as it was before one sort served
// every tolerance: group the copies by content in a map, sort each
// group on its own, cluster. The sweep must reclaim exactly what it
// did.
func dedupSavingsOracle(o *Origin, tolerance float64) int64 {
	if tolerance < 0 {
		tolerance = 0
	}
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
			if group[i].Bytes != group[j].Bytes {
				return group[i].Bytes > group[j].Bytes
			}
			return group[i].Publisher < group[j].Publisher
		})
		repBitrate := -1 << 30
		var repBytes int64
		for _, c := range group {
			if repBitrate > 0 && float64(c.BitrateKbps) <= float64(repBitrate)*(1+tolerance) {
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

// randomOrigin fills an origin with ties on every sort key: bitrates
// from a short list (so publishers collide on a rung and rungs sit
// within 5% and 10% of each other), bytes from a shorter one (so
// equal-bitrate copies tie on size and the publisher decides), and
// re-pushes that replace a copy's bytes in place. What a cluster
// reclaims is its bytes less its largest copy, so the size and
// publisher keys order the sweep without moving its totals; the
// content and bitrate keys do move them.
func randomOrigin(src *dist.Source) *Origin {
	rungs := []int{100, 103, 104, 109, 110, 200, 205, 211, 220, 400}
	sizes := []int64{500, 1000, 1000, 2000}
	o := NewOrigin()
	for p := 0; p < 6; p++ {
		pub := fmt.Sprintf("pub%d", src.Intn(4))
		content := fmt.Sprintf("c%d", src.Intn(5))
		ladder := map[int]int64{}
		for r := src.Intn(6); r >= 0; r-- {
			ladder[rungs[src.Intn(len(rungs))]] = sizes[src.Intn(len(sizes))]
		}
		o.PushLadder(pub, content, SortLadder(ladder))
	}
	return o
}

func TestSavingsSweepMatchesPerToleranceOracle(t *testing.T) {
	src := dist.NewSource(39)
	owners := map[string]string{"c0": "pub0", "c1": "pub1", "c2": "pub0"}
	for i := 0; i < 500; i++ {
		o := randomOrigin(src.Splitf("origin", i))
		r := o.Savings(owners)
		for _, c := range []struct {
			tol float64
			got int64
		}{{0, r.Exact}, {0.05, r.Tol5}, {0.10, r.Tol10}} {
			want := dedupSavingsOracle(o, c.tol)
			if c.got != want {
				t.Fatalf("origin %d: Savings at %v = %d, oracle %d; copies %+v", i, c.tol, c.got, want, o.copies)
			}
			if got := o.DedupSavings(c.tol); got != want {
				t.Fatalf("origin %d: DedupSavings(%v) = %d, oracle %d; copies %+v", i, c.tol, got, want, o.copies)
			}
		}
		if got, want := o.DedupSavings(-0.5), dedupSavingsOracle(o, -0.5); got != want {
			t.Fatalf("origin %d: DedupSavings(-0.5) = %d, oracle %d", i, got, want)
		}
	}
}
