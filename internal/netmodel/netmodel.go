// Package netmodel simulates the last-mile network paths that video
// chunks traverse: per-(ISP, connection-type) bandwidth processes with
// temporal correlation, and round-trip-time models. §6 of the paper
// compares delivery performance across ISP×CDN slices (Figs 15 and 16);
// this package supplies the client side of those paths, while cdnsim
// supplies the CDN side.
package netmodel

import (
	"fmt"
	"math"

	"vmp/internal/dist"
)

// ConnType is the access-network type telemetry records for a view;
// the paper conditions bitrate comparisons on it ("WiFi, 4G, Wired").
type ConnType int

// Connection types.
const (
	WiFi ConnType = iota
	Cellular
	Wired
)

// String returns the telemetry name for the connection type.
func (c ConnType) String() string {
	switch c {
	case WiFi:
		return "WiFi"
	case Cellular:
		return "4G"
	case Wired:
		return "Wired"
	default:
		return fmt.Sprintf("ConnType(%d)", int(c))
	}
}

// ISP identifies an access network. The paper anonymizes ISPs as
// "ISP X", "ISP Y"; the simulation registers a small set with distinct
// capacity characteristics.
type ISP struct {
	Name string
	// CapacityKbps is the typical (median) downstream rate of the
	// ISP's wired subscribers.
	CapacityKbps float64
	// Jitter scales bandwidth variability on this ISP.
	Jitter float64
}

// ISPs is the simulation's access-network registry. ISP X is a
// high-capacity cable network; ISP Y a slower DSL-grade network; the
// rest fill out the population.
var ISPs = []ISP{
	{Name: "ISP-X", CapacityKbps: 24000, Jitter: 0.35},
	{Name: "ISP-Y", CapacityKbps: 9000, Jitter: 0.55},
	{Name: "ISP-Z", CapacityKbps: 16000, Jitter: 0.45},
	{Name: "ISP-W", CapacityKbps: 32000, Jitter: 0.30},
}

// ISPByName returns the registered ISP with the given name.
func ISPByName(name string) (ISP, bool) {
	for _, isp := range ISPs {
		if isp.Name == name {
			return isp, true
		}
	}
	return ISP{}, false
}

// connFactor scales ISP wired capacity by access type, and connRTT
// gives the access-network RTT contribution in milliseconds.
func connParams(c ConnType) (factor, rttMS, extraJitter float64) {
	switch c {
	case WiFi:
		return 0.70, 18, 0.10
	case Cellular:
		return 0.30, 55, 0.30
	default: // Wired
		return 1.0, 8, 0
	}
}

// Profile describes the stationary characteristics of one network path
// between a client and a CDN edge.
type Profile struct {
	MeanKbps float64 // median achievable throughput
	Sigma    float64 // log-domain standard deviation
	Rho      float64 // AR(1) correlation between consecutive chunks
	RTTms    float64 // round-trip time
}

// PathProfile composes a client access network with a CDN-side quality
// factor (1.0 = perfectly provisioned edge; lower values model poor
// peering or a distant edge) into a path profile.
func PathProfile(isp ISP, conn ConnType, cdnQuality float64) Profile {
	if cdnQuality <= 0 {
		cdnQuality = 0.01
	}
	if cdnQuality > 1.5 {
		cdnQuality = 1.5
	}
	factor, rtt, extra := connParams(conn)
	return Profile{
		MeanKbps: isp.CapacityKbps * factor * cdnQuality,
		Sigma:    isp.Jitter + extra,
		Rho:      0.85,
		RTTms:    rtt + 25*(1.1-math.Min(cdnQuality, 1.1)),
	}
}

// Trace is a realization of a path profile: a temporally correlated
// bandwidth process sampled once per chunk download.
type Trace struct {
	prof  Profile
	src   *dist.Source
	state float64 // AR(1) log-domain state
	init  bool
}

// NewTrace starts a bandwidth trace drawing randomness from src.
func (p Profile) NewTrace(src *dist.Source) *Trace {
	return &Trace{prof: p, src: src}
}

// NextKbps returns the achievable throughput for the next chunk
// download. The process is log-normal around MeanKbps with AR(1)
// correlation Rho, so congestion episodes persist across chunks the way
// real paths behave.
func (t *Trace) NextKbps() float64 {
	if !t.init {
		t.state = t.prof.Sigma * t.src.Norm()
		t.init = true
	} else {
		innovation := t.prof.Sigma * math.Sqrt(1-t.prof.Rho*t.prof.Rho) * t.src.Norm()
		t.state = t.prof.Rho*t.state + innovation
	}
	kbps := t.prof.MeanKbps * math.Exp(t.state-t.prof.Sigma*t.prof.Sigma/2)
	if kbps < 50 {
		kbps = 50 // floor: paths rarely stall to zero for a whole chunk
	}
	return kbps
}

// RTT returns the path round-trip time in seconds.
func (t *Trace) RTT() float64 { return t.prof.RTTms / 1000 }

// DownloadSec returns the simulated wall-clock time to fetch an object
// of the given size over the trace's next bandwidth sample: one RTT of
// request latency plus the transfer itself.
func (t *Trace) DownloadSec(bytes int64) float64 {
	kbps := t.NextKbps()
	return t.RTT() + float64(bytes)*8/(kbps*1000)
}
