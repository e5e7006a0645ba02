package packaging

import (
	"testing"
	"testing/quick"

	"vmp/internal/dist"
)

func TestGuidelineLadderFloor(t *testing.T) {
	// HLS guidance: at least one bitrate under 192 Kbps.
	for _, max := range []int{500, 2000, 8000, 20000} {
		l := GuidelineLadder(max, 1.8)
		if l.Min() > 192 {
			t.Errorf("max=%d: ladder floor %d exceeds 192 Kbps", max, l.Min())
		}
		if l.Max() != max {
			t.Errorf("max=%d: ladder top is %d", max, l.Max())
		}
	}
}

func TestGuidelineLadderSteps(t *testing.T) {
	l := GuidelineLadder(8000, 1.7)
	for i := 1; i < len(l); i++ {
		ratio := float64(l[i].BitrateKbps) / float64(l[i-1].BitrateKbps)
		// Successive bitrates within 1.5-2x, with slack for the final
		// rung which is pinned to maxKbps and for rounding.
		if ratio < 1.05 || ratio > 2.1 {
			t.Errorf("rung %d/%d ratio %v outside guideline", l[i].BitrateKbps, l[i-1].BitrateKbps, ratio)
		}
	}
}

func TestGuidelineLadderClamps(t *testing.T) {
	// Degenerate inputs must still produce a usable ladder.
	l := GuidelineLadder(10, 0.5)
	if len(l) == 0 || l.Max() < 150 {
		t.Fatalf("clamped ladder unusable: %v", l)
	}
	l = GuidelineLadder(8000, 99)
	for i := 1; i < len(l); i++ {
		if float64(l[i].BitrateKbps)/float64(l[i-1].BitrateKbps) > 2.1 {
			t.Fatal("step should clamp to 2")
		}
	}
}

func TestRenditionFor(t *testing.T) {
	r := RenditionFor(250)
	if r.Width != 416 || r.Height != 234 {
		t.Errorf("250 Kbps -> %dx%d", r.Width, r.Height)
	}
	r = RenditionFor(4000)
	if r.Height != 1080 {
		t.Errorf("4000 Kbps -> height %d, want 1080", r.Height)
	}
	r = RenditionFor(50000)
	if r.Height != 2160 {
		t.Errorf("50 Mbps -> height %d, want 2160 (4K)", r.Height)
	}
	if r.BitrateKbps != 50000 {
		t.Error("RenditionFor must preserve the bitrate")
	}
}

func TestPerTitleLadderDeterminism(t *testing.T) {
	s1 := dist.NewSource(5).Split("ladder")
	s2 := dist.NewSource(5).Split("ladder")
	l1 := PerTitleLadder(s1, 6000, 1.1)
	l2 := PerTitleLadder(s2, 6000, 1.1)
	if len(l1) != len(l2) {
		t.Fatal("same seed produced different ladder sizes")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed produced different ladders")
		}
	}
}

func TestPerTitleLadderVariesAcrossPublishers(t *testing.T) {
	root := dist.NewSource(5)
	a := PerTitleLadder(root.Split("pub-a"), 6000, 1)
	b := PerTitleLadder(root.Split("pub-b"), 6000, 1)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i].BitrateKbps != b[i].BitrateKbps {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("independent publishers produced identical per-title ladders")
	}
}

func TestPerTitleLadderComplexityClamp(t *testing.T) {
	l := PerTitleLadder(dist.NewSource(1), 4000, -5)
	if len(l) == 0 {
		t.Fatal("non-positive complexity should clamp, not break")
	}
}

// Property: guideline ladders are strictly increasing and respect the
// floor/ceiling invariants for any max bitrate and step.
func TestGuidelineLadderProperty(t *testing.T) {
	f := func(maxK uint16, stepHundredths uint8) bool {
		max := int(maxK%20000) + 200
		step := 1.5 + float64(stepHundredths%51)/100
		l := GuidelineLadder(max, step)
		if len(l) == 0 || l.Min() > 192 || l.Max() != max {
			return false
		}
		for i := 1; i < len(l); i++ {
			if l[i].BitrateKbps <= l[i-1].BitrateKbps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
