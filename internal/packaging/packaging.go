// Package packaging models the content-preparation half of the video
// management plane (§2): transcoding a master file into a bitrate
// ladder, breaking each rendition into chunks, encapsulating the chunks
// for one or more streaming protocols, and accounting for the compute
// and storage that packaging consumes. The paper's Protocol-titles
// complexity metric (§5) and origin-storage analysis (§6) both rest on
// this model.
package packaging

import (
	"fmt"
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

// Package is one packaged form of one video: a (title, protocol,
// ladder) triple with chunking already applied, ready for distribution
// to a CDN origin.
type Package struct {
	Spec     manifest.Spec
	Protocol manifest.Protocol
	DRM      bool // encrypted with a DRM system before encapsulation
}

// NewPackage encapsulates spec with the given protocol. It validates
// the spec because a Package is the boundary where content leaves the
// publisher and malformed specs must not propagate to CDNs.
func NewPackage(spec manifest.Spec, p manifest.Protocol, drm bool) (*Package, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("packaging: %w", err)
	}
	switch p {
	case manifest.HLS, manifest.DASH, manifest.Smooth, manifest.HDS:
	default:
		return nil, fmt.Errorf("packaging: %v is not a packageable protocol", p)
	}
	return &Package{Spec: spec, Protocol: p, DRM: drm}, nil
}

// Manifest renders the package's manifest for distribution under
// baseURL.
func (p *Package) Manifest(baseURL string) (string, error) {
	return manifest.Generate(p.Protocol, &p.Spec, baseURL)
}

// ChunkBytes returns the size in bytes of one chunk of the given
// rendition: bitrate × chunk duration (plus the audio track, which
// streaming packagers mux into or alongside each video chunk).
func (p *Package) ChunkBytes(rendition int) int64 {
	r := p.Spec.Ladder[rendition]
	bitsPerSec := float64(r.BitrateKbps+p.Spec.AudioKbps) * 1000
	return int64(bitsPerSec * p.Spec.ChunkSec / 8)
}

// StorageBytes returns the total bytes this package occupies at an
// origin: the §6 storage model ("multiplying for each video ID, its
// encoded bitrates by its duration in seconds, and summing these
// products").
func (p *Package) StorageBytes() int64 {
	var total int64
	dur := p.Spec.DurationSec
	if p.Spec.Live {
		// Live content retains only the sliding window.
		dur = p.Spec.ChunkSec * float64(p.Spec.ChunkCount())
	}
	for _, r := range p.Spec.Ladder {
		total += int64(float64(r.BitrateKbps+p.Spec.AudioKbps) * 1000 * dur / 8)
	}
	return total
}

// Cost captures the resources one packaging job consumes.
type Cost struct {
	CPUSeconds   float64 // transcode + encapsulation compute
	StorageBytes int64   // origin bytes produced
	Objects      int     // chunk objects written (renditions × chunks)
	LatencySec   float64 // added end-to-end delay for live content (§4.1)
}

// transcodeSpeed is the simulated transcode throughput in output
// seconds per CPU second per rendition; DRM encryption adds overhead.
const (
	transcodeSpeed = 8.0
	drmOverhead    = 1.15
)

// JobCost returns the cost of packaging p from a mezzanine master.
func (p *Package) JobCost() Cost {
	dur := p.Spec.DurationSec
	if p.Spec.Live {
		dur = p.Spec.ChunkSec * float64(p.Spec.ChunkCount())
	}
	cpu := dur * float64(len(p.Spec.Ladder)) / transcodeSpeed
	if p.DRM {
		cpu *= drmOverhead
	}
	return Cost{
		CPUSeconds:   cpu,
		StorageBytes: p.StorageBytes(),
		Objects:      len(p.Spec.Ladder) * p.Spec.ChunkCount(),
		// Chunked HTTP protocols add roughly one chunk duration of
		// packaging delay to live streams (§4.1: "a few seconds").
		LatencySec: p.Spec.ChunkSec,
	}
}

// Pipeline packages one title for every protocol a publisher supports
// and accumulates the total cost — the Protocol-titles intuition from
// §5: "each publisher has to package each video separately for each
// protocol".
func Pipeline(spec manifest.Spec, protocols []manifest.Protocol, drm bool) ([]*Package, Cost, error) {
	var (
		pkgs  []*Package
		total Cost
	)
	for _, proto := range protocols {
		pkg, err := NewPackage(spec, proto, drm)
		if err != nil {
			return nil, Cost{}, err
		}
		c := pkg.JobCost()
		total.CPUSeconds += c.CPUSeconds
		total.StorageBytes += c.StorageBytes
		total.Objects += c.Objects
		if c.LatencySec > total.LatencySec {
			total.LatencySec = c.LatencySec
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, total, nil
}
