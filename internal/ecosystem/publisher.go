// Package ecosystem generates the synthetic dataset that stands in for
// the paper's proprietary Conviva data: a population of ~110 video
// publishers whose management-plane configurations (streaming
// protocols, playback platforms, CDNs) evolve over the 27-month study
// window, a syndication graph, and a per-snapshot view sampler that
// emits telemetry records. Records are sampled, not played: playback
// (internal/player) measures only the Fig 15/16 QoE comparison.
//
// Every longitudinal anchor the paper reports (DASH growth driven by a
// few large publishers, HDS decline, set-top ascent, CDN view-hour
// shifts, ...) is encoded as an adoption process here; the analytics
// layer then *rediscovers* those trends from the records, exercising
// the same analysis pipeline the paper ran.
package ecosystem

import (
	"sort"
	"time"

	"vmp/internal/device"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

// Bucket is a publisher's view-hour decade: bucket b covers daily
// view-hours in [10^(b-1), 10^b) of the confidential unit X (bucket 0
// covers < X). The paper buckets publishers this way in Figs 3b, 9b,
// and 12b.
type Bucket int

// NumBuckets is the number of view-hour decades in the population,
// bucket 6 being the ">10^5 X" giants.
const NumBuckets = 7

// Publisher is one content publisher with its full management-plane
// configuration over time.
type Publisher struct {
	ID     string
	Bucket Bucket
	// DailyVH is the publisher's daily view-hours (in X units) at the
	// study midpoint; Growth scales it linearly ±Growth over the window.
	DailyVH float64
	Growth  float64

	// Packaging.
	hlsFrom     float64 // study fraction when HLS support begins; <0 = always, >1 = never
	dashFrom    float64
	smoothFrom  float64
	hdsFrom     float64
	hdsUntil    float64 // HDS support drops at this fraction (>1 = retained)
	rtmpWeight0 float64 // RTMP preference at study start (decays to ~0)
	DASHDriver  bool    // one of the N large publishers behind DASH growth
	DRM         bool

	// Playback.
	platformFrom [5]float64 // adoption fraction per device.Platform
	SDKLag       int        // quarters of legacy SDK versions supported

	// Distribution.
	cdnNames    []string  // assigned CDNs in adoption order
	cdnFrom     []float64 // adoption fraction per assigned CDN
	cdnLiveOnly []bool
	cdnVoDOnly  []bool
	shiftToBC   bool // large publishers shift view-hour weight from CDN A to B/C

	// Content.
	CatalogSize    int     // distinct titles
	LiveShare      float64 // fraction of views that are live
	MeanVideoHours float64 // mean title duration in hours

	// Syndication.
	IsSyndicator bool
	SyndicatesTo []string // syndicator publisher IDs carrying this owner's content
	CarriesFrom  []string // owner publisher IDs whose content this syndicator carries
	SyndShare    float64  // fraction of a syndicator's views that are syndicated content
}

// DailyViewHoursAt returns the publisher's daily view-hours at time t.
func (p *Publisher) DailyViewHoursAt(t time.Time) float64 {
	f := simclock.FractionThrough(t)
	return p.DailyVH * (1 + p.Growth*(f-0.5))
}

// SupportsProtocolAt reports whether the publisher's packaging pipeline
// emits the protocol at time t.
func (p *Publisher) SupportsProtocolAt(proto manifest.Protocol, t time.Time) bool {
	f := simclock.FractionThrough(t)
	switch proto {
	case manifest.HLS:
		return f >= p.hlsFrom
	case manifest.DASH:
		return f >= p.dashFrom
	case manifest.Smooth:
		return f >= p.smoothFrom
	case manifest.HDS:
		return f >= p.hdsFrom && f < p.hdsUntil
	case manifest.RTMP:
		return p.rtmpWeight0 > 0
	default:
		return false
	}
}

// ProtocolsAt returns the HTTP streaming protocols supported at t, in
// canonical order.
func (p *Publisher) ProtocolsAt(t time.Time) []manifest.Protocol {
	var out []manifest.Protocol
	for _, proto := range manifest.HTTPProtocols {
		if p.SupportsProtocolAt(proto, t) {
			out = append(out, proto)
		}
	}
	return out
}

// protocolWeightAt returns the view-hour preference weight for a
// supported protocol at time t; the sampler combines these with device
// compatibility. The weights encode Fig 4: HLS is the workhorse for
// most publishers, DASH carries real traffic only for the DASH drivers.
func (p *Publisher) protocolWeightAt(proto manifest.Protocol, t time.Time) float64 {
	if !p.SupportsProtocolAt(proto, t) {
		return 0
	}
	f := simclock.FractionThrough(t)
	switch proto {
	case manifest.HLS:
		return 1.0
	case manifest.DASH:
		if p.DASHDriver {
			// Ramp after adoption to dominate the driver's traffic.
			since := f - p.dashFrom
			if since < 0 {
				return 0
			}
			return 3.4 * minf(1, 0.15+since*3)
		}
		return 0.16
	case manifest.Smooth:
		return 0.55
	case manifest.HDS:
		return dist.Linear(f, 0.65, 0.18)
	case manifest.RTMP:
		return p.rtmpWeight0 * dist.Linear(f, 1, 0.05)
	default:
		return 0
	}
}

// SupportsPlatformAt reports whether the publisher ships a player/app
// for the platform at time t.
func (p *Publisher) SupportsPlatformAt(pl device.Platform, t time.Time) bool {
	return simclock.FractionThrough(t) >= p.platformFrom[int(pl)]
}

// PlatformsAt returns the platforms supported at t.
func (p *Publisher) PlatformsAt(t time.Time) []device.Platform {
	var out []device.Platform
	for _, pl := range device.Platforms {
		if p.SupportsPlatformAt(pl, t) {
			out = append(out, pl)
		}
	}
	return out
}

// platformWeightAt returns the view-hour weight of a supported platform
// at time t. The global trends of Fig 6a (browser decline, set-top
// ascent) are modulated per-publisher: large publishers skew to the
// living room, small publishers to mobile, which is what makes Fig 6b
// (excluding the giants) show mobile on top.
func (p *Publisher) platformWeightAt(pl device.Platform, t time.Time) float64 {
	if !p.SupportsPlatformAt(pl, t) {
		return 0
	}
	f := simclock.FractionThrough(t)
	size := float64(p.Bucket) / float64(NumBuckets-1) // 0 small .. 1 giant
	giant := p.Bucket == NumBuckets-1
	switch pl {
	case device.Browser:
		return dist.Linear(f, 1.5, 0.55)
	case device.Mobile:
		// Small and mid-size publishers are mobile-led; the giants'
		// audiences are living-room-led (subscription TV services).
		mult := 1.45 - 0.35*size
		if giant {
			mult = 0.60
		}
		return dist.Linear(f, 0.55, 0.75) * mult
	case device.SetTop:
		mult := 0.42 + 0.18*size
		if giant {
			mult = 1.15
		}
		return dist.Linear(f, 0.30, 1.0) * mult
	case device.SmartTV:
		return dist.Linear(f, 0.05, 0.13)
	case device.Console:
		return 0.12
	default:
		return 0
	}
}

// CDNAssignment describes one of the publisher's CDNs at a point in
// time.
type CDNAssignment struct {
	Name     string
	Weight   float64
	LiveOnly bool
	VoDOnly  bool
}

// CDNsAt returns the publisher's active CDN assignments at time t with
// their current view-hour weights.
func (p *Publisher) CDNsAt(t time.Time) []CDNAssignment {
	f := simclock.FractionThrough(t)
	var out []CDNAssignment
	for i, name := range p.cdnNames {
		if f < p.cdnFrom[i] {
			continue
		}
		w := 1.0
		if i > 0 {
			w = 0.5 // later CDNs carry less by default
		}
		if p.shiftToBC {
			// §4.3: CDN A's view-hour share declines while B and C
			// grow, a move driven by the large publishers.
			switch name {
			case "A":
				w = dist.Linear(f, 1.15, 0.50)
			case "B":
				w = dist.Linear(f, 0.38, 1.05)
			case "C":
				w = dist.Linear(f, 0.45, 0.95)
			default:
				w = 0.14
			}
		}
		out = append(out, CDNAssignment{
			Name:     name,
			Weight:   w,
			LiveOnly: p.cdnLiveOnly[i],
			VoDOnly:  p.cdnVoDOnly[i],
		})
	}
	return out
}

// CDNNamesAt returns just the names of the active CDNs at t, sorted.
func (p *Publisher) CDNNamesAt(t time.Time) []string {
	as := p.CDNsAt(t)
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
