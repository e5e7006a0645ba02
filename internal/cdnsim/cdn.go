package cdnsim

import (
	"fmt"
	"sync"

	"vmp/internal/dist"
)

// CDN is one content delivery network: an origin store plus per-ISP
// edge caches and a per-ISP delivery-quality profile. The paper
// observes 36 CDNs with over 93% of view-hours concentrated on the top
// 5 (anonymized A-E), one of the top 3 using anycast.
type CDN struct {
	Name    string
	Anycast bool
	Origin  *Origin

	mu       sync.Mutex
	quality  map[string]float64    // ISP name → delivery quality in (0, 1.5]
	edges    map[string]*EdgeCache // ISP name → edge POP
	edgeCap  int64
	requests int64
	bytes    int64
	byISP    map[string]*TrafficCounters
}

// TrafficCounters is the served-traffic accounting a CDN keeps per
// ISP — the delivery-side view of the dataset.
type TrafficCounters struct {
	Requests int64
	Bytes    int64
}

// NewCDN creates a CDN with the given edge capacity per POP.
func NewCDN(name string, anycast bool, edgeCapacity int64) *CDN {
	return &CDN{
		Name:    name,
		Anycast: anycast,
		Origin:  NewOrigin(),
		quality: make(map[string]float64),
		edges:   make(map[string]*EdgeCache),
		edgeCap: edgeCapacity,
		byISP:   make(map[string]*TrafficCounters),
	}
}

// SetQuality sets the delivery-quality factor toward an ISP. Values are
// clamped into (0, 1.5].
func (c *CDN) SetQuality(isp string, q float64) {
	if q <= 0 {
		q = 0.01
	}
	if q > 1.5 {
		q = 1.5
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quality[isp] = q
}

// Quality returns the delivery-quality factor toward an ISP, defaulting
// to a mediocre 0.7 for ISPs without explicit peering configuration.
func (c *CDN) Quality(isp string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.quality[isp]; ok {
		return q
	}
	return 0.7
}

// Edge returns the edge cache serving an ISP, creating it on first use.
func (c *CDN) Edge(isp string) *EdgeCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.edges[isp]
	if !ok {
		e = NewEdgeCache(c.edgeCap)
		c.edges[isp] = e
	}
	return e
}

// ServeChunk serves one chunk request arriving from an ISP: it consults
// the ISP's edge cache, accounts the traffic, and reports whether the
// chunk was an edge hit.
func (c *CDN) ServeChunk(isp, chunkURL string, bytes int64) (hit bool) {
	c.mu.Lock()
	c.requests++
	c.bytes += bytes
	tc := c.byISP[isp]
	if tc == nil {
		tc = &TrafficCounters{}
		c.byISP[isp] = tc
	}
	tc.Requests++
	tc.Bytes += bytes
	c.mu.Unlock()
	return c.Edge(isp).Serve(chunkURL, bytes)
}

// Served returns the CDN-wide served-traffic counters.
func (c *CDN) Served() TrafficCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TrafficCounters{Requests: c.requests, Bytes: c.bytes}
}

// ServedByISP returns the served-traffic counters toward one ISP.
func (c *CDN) ServedByISP(isp string) TrafficCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tc := c.byISP[isp]; tc != nil {
		return *tc
	}
	return TrafficCounters{}
}

// Registry is the simulation's CDN population.
type Registry struct {
	byName map[string]*CDN
}

// TopCDNNames are the anonymized top-5 CDNs of §4.3 in paper order.
var TopCDNNames = []string{"A", "B", "C", "D", "E"}

// TotalCDNCount is the number of distinct CDNs observed in the dataset
// (§4.3: "we observed 36 different CDNs").
const TotalCDNCount = 36

// defaultEdgeCapacity sizes each simulated POP.
const defaultEdgeCapacity = 8 << 30 // 8 GiB

// NewRegistry builds the 36-CDN population: the top five (A-E) with
// deliberate quality profiles — A is the long-standing incumbent used
// by most publishers, B and C are strong challengers that come to carry
// comparable view-hours, B uses anycast (one of the top 3 does, §4.3) —
// plus 31 regional/internal CDNs with middling quality. src perturbs
// the minor CDNs' quality deterministically.
func NewRegistry(src *dist.Source) *Registry {
	r := &Registry{byName: make(map[string]*CDN)}
	add := func(c *CDN) { r.byName[c.Name] = c }
	top := []struct {
		name    string
		anycast bool
		quality map[string]float64
	}{
		{"A", false, map[string]float64{"ISP-X": 1.00, "ISP-Y": 0.85, "ISP-Z": 0.95, "ISP-W": 1.00}},
		{"B", true, map[string]float64{"ISP-X": 1.05, "ISP-Y": 0.90, "ISP-Z": 1.00, "ISP-W": 0.95}},
		{"C", false, map[string]float64{"ISP-X": 0.95, "ISP-Y": 0.95, "ISP-Z": 1.00, "ISP-W": 0.90}},
		{"D", false, map[string]float64{"ISP-X": 0.85, "ISP-Y": 0.80, "ISP-Z": 0.85, "ISP-W": 0.85}},
		{"E", false, map[string]float64{"ISP-X": 0.80, "ISP-Y": 0.85, "ISP-Z": 0.80, "ISP-W": 0.80}},
	}
	for _, t := range top {
		c := NewCDN(t.name, t.anycast, defaultEdgeCapacity)
		for isp, q := range t.quality {
			c.SetQuality(isp, q)
		}
		add(c)
	}
	for i := len(top); i < TotalCDNCount; i++ {
		name := fmt.Sprintf("R%02d", i)
		c := NewCDN(name, false, defaultEdgeCapacity/4)
		qsrc := src.Split("cdn-quality-" + name)
		for _, isp := range []string{"ISP-X", "ISP-Y", "ISP-Z", "ISP-W"} {
			c.SetQuality(isp, qsrc.Uniform(0.5, 0.9))
		}
		add(c)
	}
	return r
}

// ByName returns the CDN with the given name.
func (r *Registry) ByName(name string) (*CDN, bool) {
	c, ok := r.byName[name]
	return c, ok
}

// Assignment is one entry of a publisher's multi-CDN configuration:
// which CDN, what share of sessions it should receive, and whether the
// publisher segregates it to live or VoD traffic (§4.3 finds 30% of
// eligible publishers keep at least one CDN VoD-only and 19% keep one
// live-only).
type Assignment struct {
	CDN      *CDN
	Weight   float64
	LiveOnly bool
	VoDOnly  bool
}

// Broker selects a CDN for each session from a publisher's assignments,
// the role CDN brokers play in §2 (selection plus monitoring). A Broker
// is stateless and safe for concurrent use.
type Broker struct{}

// Select picks the CDN for a session with the given content type using
// weighted random selection over the eligible assignments. It returns
// nil when no assignment is eligible (a publisher misconfiguration the
// caller must surface).
func (Broker) Select(assignments []Assignment, live bool, src *dist.Source) *CDN {
	var weights []float64
	var eligible []*CDN
	for _, a := range assignments {
		if a.CDN == nil || a.Weight <= 0 {
			continue
		}
		if live && a.VoDOnly || !live && a.LiveOnly {
			continue
		}
		weights = append(weights, a.Weight)
		eligible = append(eligible, a.CDN)
	}
	if len(eligible) == 0 {
		return nil
	}
	return eligible[src.Categorical(weights)]
}

// Eligible returns the CDNs an assignment set can serve for the given
// content type, in assignment order.
func Eligible(assignments []Assignment, live bool) []*CDN {
	var out []*CDN
	for _, a := range assignments {
		if a.CDN == nil || a.Weight <= 0 {
			continue
		}
		if live && a.VoDOnly || !live && a.LiveOnly {
			continue
		}
		out = append(out, a.CDN)
	}
	return out
}
