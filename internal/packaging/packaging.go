// Package packaging models the content-preparation half of the video
// management plane (§2) as far as the study needs it: the bitrate
// ladder a master file is transcoded into, rung by rung with the
// resolution and codec each bitrate gets — by the encoding guidelines,
// or per title.
package packaging

import (
	"math"

	"vmp/internal/dist"
	"vmp/internal/manifest"
)

// rungs maps a video bitrate to a plausible resolution, following
// common encoding guidelines (e.g. Apple TN2224).
var rungs = []struct {
	maxKbps       int
	width, height int
	codecTag      string
}{
	{300, 416, 234, "avc1.42c00d"},
	{600, 640, 360, "avc1.42c01e"},
	{1200, 768, 432, "avc1.4d401e"},
	{2500, 1280, 720, "avc1.4d401f"},
	{5000, 1920, 1080, "avc1.640028"},
	{10000, 2560, 1440, "avc1.640032"},
	{math.MaxInt, 3840, 2160, "hvc1.1.6.L120"},
}

// RenditionFor returns a fully populated rendition (resolution, codec
// tag) for a video bitrate.
func RenditionFor(kbps int) manifest.Rendition {
	for _, r := range rungs {
		if kbps <= r.maxKbps {
			return manifest.Rendition{BitrateKbps: kbps, Width: r.width, Height: r.height, Codec: r.codecTag}
		}
	}
	last := rungs[len(rungs)-1]
	return manifest.Rendition{BitrateKbps: kbps, Width: last.width, Height: last.height, Codec: last.codecTag}
}

// GuidelineLadder builds a bitrate ladder following the HLS
// specification guidance cited in §6: at least one rendition at or
// below 192 Kbps, and each successive bitrate within a multiplicative
// factor of 1.5-2x of the previous, up to maxKbps. step controls the
// growth factor and must lie in [1.5, 2]; values outside are clamped.
func GuidelineLadder(maxKbps int, step float64) manifest.Ladder {
	if maxKbps < 150 {
		maxKbps = 150
	}
	if step < 1.5 {
		step = 1.5
	}
	if step > 2 {
		step = 2
	}
	var ladder manifest.Ladder
	b := 150.0 // the ≤192 Kbps floor rung
	for {
		kbps := int(math.Round(b))
		if kbps >= maxKbps {
			ladder = append(ladder, RenditionFor(maxKbps))
			break
		}
		ladder = append(ladder, RenditionFor(kbps))
		b *= step
	}
	return ladder
}

// PerTitleLadder perturbs a guideline ladder the way per-title encoding
// does (§6, Netflix per-title optimization): each publisher picks its
// own rung count and scales rung bitrates by content complexity, so two
// publishers encoding the same title land on similar-but-not-identical
// ladders. src drives the perturbation deterministically.
func PerTitleLadder(src *dist.Source, maxKbps int, complexity float64) manifest.Ladder {
	if complexity <= 0 {
		complexity = 1
	}
	step := src.Uniform(1.5, 2.0)
	base := GuidelineLadder(int(float64(maxKbps)*complexity), step)
	out := make(manifest.Ladder, 0, len(base))
	for _, r := range base {
		jitter := src.Uniform(0.92, 1.08)
		out = append(out, RenditionFor(int(float64(r.BitrateKbps)*jitter)))
	}
	return out
}
