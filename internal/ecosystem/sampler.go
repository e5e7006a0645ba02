package ecosystem

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"vmp/internal/device"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/netmodel"
	"vmp/internal/packaging"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// deviceMixAt returns the view-hour weights over device models within a
// platform at study fraction f, encoding the within-platform trends of
// Fig 10: HTML5 overtaking Flash in browsers, Android catching up with
// iOS on mobile, Roku dominating set-tops.
func deviceMixAt(pl device.Platform, f float64) (models []string, weights []float64) {
	switch pl {
	case device.Browser:
		return []string{"HTML5", "Flash", "Silverlight"},
			[]float64{dist.Linear(f, 0.25, 0.58), dist.Linear(f, 0.60, 0.37), dist.Linear(f, 0.15, 0.05)}
	case device.Mobile:
		return []string{"iPhone", "iPad", "AndroidPhone", "AndroidTablet"},
			[]float64{dist.Linear(f, 0.42, 0.33), dist.Linear(f, 0.20, 0.17),
				dist.Linear(f, 0.28, 0.38), dist.Linear(f, 0.10, 0.12)}
	case device.SetTop:
		return []string{"Roku", "AppleTV", "FireTV", "Chromecast"},
			[]float64{0.54, 0.20, dist.Linear(f, 0.12, 0.17), dist.Linear(f, 0.14, 0.09)}
	case device.SmartTV:
		return []string{"SamsungTV", "LGTV", "VizioTV"}, []float64{0.50, 0.30, 0.20}
	default:
		return []string{"Xbox", "PlayStation"}, []float64{0.58, 0.42}
	}
}

// durationHours samples one view duration (hours) for a platform,
// matching Fig 8: only ~24% of mobile and browser views exceed 0.2
// hours while more than 60% of set-top views do.
func durationHours(src *dist.Source, pl device.Platform) float64 {
	var medianH, sigma float64
	switch pl {
	case device.Mobile:
		medianH, sigma = 0.055, 1.50
	case device.Browser:
		medianH, sigma = 0.070, 1.52
	case device.SetTop:
		medianH, sigma = 0.40, 0.95
	case device.SmartTV:
		medianH, sigma = 0.34, 1.0
	default: // Console
		medianH, sigma = 0.18, 1.1
	}
	d := src.LogNormal(math.Log(medianH), sigma)
	if d > 4 {
		d = 4 // sessions cap out at a long evening
	}
	if d < 0.003 {
		d = 0.003 // sub-10-second views are dropped by the collector
	}
	return d
}

// connTypeFor draws the access-network type given the platform.
func connTypeFor(src *dist.Source, pl device.Platform) netmodel.ConnType {
	switch pl {
	case device.Mobile:
		if src.Bool(0.45) {
			return netmodel.Cellular
		}
		return netmodel.WiFi
	case device.Browser:
		if src.Bool(0.55) {
			return netmodel.Wired
		}
		return netmodel.WiFi
	default:
		if src.Bool(0.30) {
			return netmodel.Wired
		}
		return netmodel.WiFi
	}
}

// GeoCount is the number of distinct viewer geographies the population
// serves (§3: "the publishers in our study together serve 180
// countries").
const GeoCount = 180

var geoZipf = dist.NewZipf(GeoCount, 1.1)

// geoNames holds the geography labels "G000" … "G179", by rank.
var geoNames = func() (names [GeoCount]string) {
	for i := range names {
		names[i] = fmt.Sprintf("G%03d", i)
	}
	return names
}()

func geoFor(src *dist.Source) string {
	return geoNames[geoZipf.Draw(src)]
}

// maxSamplesPerSnapshot bounds per-publisher sample counts so the
// synthetic census stays tractable; Weight carries the expansion.
const (
	minSamplesPerSnapshot = 24
	maxSamplesPerSnapshot = 420
)

// baseFailureRate is the organic fraction of views that abort on a
// fatal error, absent injected faults.
const baseFailureRate = 0.008

// sampleCount sizes a publisher's per-snapshot sample.
func sampleCount(viewHours float64) int {
	n := int(6 * math.Sqrt(viewHours))
	if n < minSamplesPerSnapshot {
		return minSamplesPerSnapshot
	}
	if n > maxSamplesPerSnapshot {
		return maxSamplesPerSnapshot
	}
	return n
}

// ladderFor returns the publisher's encoding ladder. Ladder height
// scales with publisher size — big publishers fund 4K-grade toplines.
func (e *Ecosystem) ladderFor(p *Publisher) manifest.Ladder {
	if l, ok := e.ladders[p.ID]; ok {
		return l
	}
	maxKbps := 1200 + 1400*int(p.Bucket)
	l := packaging.PerTitleLadder(e.root.Split("ladder-"+p.ID), maxKbps, 1)
	e.ladders[p.ID] = l
	return l
}

// snapshotMid is the instant a snapshot's publisher configuration is
// read at.
func snapshotMid(snap simclock.Snapshot) time.Time {
	return snap.Start.Add(time.Duration(snap.Days) * simclock.Day / 2)
}

// sampleMix is what one publisher's sample of one snapshot window is
// drawn over: the platforms it plays on with their view-count weights,
// how many views it draws (n) and how many real views each stands for.
type sampleMix struct {
	mid         time.Time
	platforms   []device.Platform
	platWeights []float64
	n           int
	weight      float64
}

// mixOf returns p's sample mix in snap. Its n is 0 where the sample
// draws nothing: p plays on no platform then, or on none with any
// view-hour weight.
func mixOf(p *Publisher, snap simclock.Snapshot) sampleMix {
	mid := snapshotMid(snap)
	platforms := p.PlatformsAt(mid)
	if len(platforms) == 0 {
		return sampleMix{}
	}
	// platformWeightAt gives view-HOUR weights; dividing by the
	// platform's mean view duration converts them to view-count
	// weights so that, after durations are sampled, each platform's
	// share of view-hours matches its configured weight.
	platWeights := make([]float64, len(platforms))
	var vhTotal, viewTotal float64
	for i, pl := range platforms {
		vhWeight := p.platformWeightAt(pl, mid)
		platWeights[i] = vhWeight / meanDurationHours(pl)
		vhTotal += vhWeight
		viewTotal += platWeights[i]
	}
	if vhTotal == 0 {
		return sampleMix{}
	}
	// E[duration] under the view mix converts view-hours into the real
	// view count the sample represents.
	vh := p.DailyViewHoursAt(mid) * float64(snap.Days)
	realViews := vh / (vhTotal / viewTotal)
	n := sampleCount(vh)
	return sampleMix{mid: mid, platforms: platforms, platWeights: platWeights, n: n, weight: realViews / float64(n)}
}

// sampleSize returns how many records p's sample of snap holds at most:
// one per view drawn. A drawn view sampleView drops holds none.
func sampleSize(p *Publisher, snap simclock.Snapshot) int { return mixOf(p, snap).n }

// samplePublisherSnapshot appends the sampled view records of the
// publisher t belongs to in one snapshot window to dst, whose spare
// capacity must hold sampleSize of them: it never grows dst's array.
func (e *Ecosystem) samplePublisherSnapshot(dst []telemetry.ViewRecord, t *pubStrings, snap simclock.Snapshot) []telemetry.ViewRecord {
	p := t.p
	m := mixOf(p, snap)
	if m.n == 0 {
		return dst
	}
	src := e.root.Split("sample-" + p.ID + "-" + snap.Label())
	c := newSnapshotChoices(t, m.mid, m.platforms, m.platWeights, e.ladderFor(p), e.catalogZipf(p))
	for i := 0; i < m.n; i++ {
		rec, ok := e.sampleView(c, snap, src.Splitf("view", i))
		if !ok {
			continue
		}
		rec.Weight = m.weight
		dst = append(dst, rec)
	}
	return dst
}

// meanDurationHours is E[duration] for the platform's log-normal.
func meanDurationHours(pl device.Platform) float64 {
	switch pl {
	case device.Mobile:
		return 0.055 * math.Exp(1.50*1.50/2)
	case device.Browser:
		return 0.070 * math.Exp(1.52*1.52/2)
	case device.SetTop:
		return 0.40 * math.Exp(0.95*0.95/2)
	case device.SmartTV:
		return 0.34 * math.Exp(1.0/2)
	default:
		return 0.18 * math.Exp(1.1*1.1/2)
	}
}

func (e *Ecosystem) catalogZipf(p *Publisher) *dist.Zipf {
	if z, ok := e.zipfs[p.CatalogSize]; ok {
		return z
	}
	z := dist.NewZipf(p.CatalogSize, 0.9)
	e.zipfs[p.CatalogSize] = z
	return z
}

// sampleView draws one view record. It returns ok=false when no
// (device, protocol) combination is playable — rare, but possible for
// odd configs early in adoption.
func (e *Ecosystem) sampleView(c *snapshotChoices, snap simclock.Snapshot, src *dist.Source) (telemetry.ViewRecord, bool) {
	p := c.p
	live := src.Split("live").Bool(p.LiveShare)

	// Pick platform → device → protocol, retrying on incompatibility.
	// The device is the j-th model of its platform's mix.
	var (
		mix   *deviceChoice
		j     int
		proto manifest.Protocol
		pl    device.Platform
	)
	found := false
	for attempt := 0; attempt < 5 && !found; attempt++ {
		asrc := src.Splitf("attempt", attempt)
		pl = c.platforms[asrc.Categorical(c.platWeights)]
		mix = c.devices(pl)
		j = asrc.Categorical(mix.weights)
		proto, found = c.protocol(mix, j, asrc)
	}
	if !found {
		// Fall back to the universal combination if the publisher has
		// it; otherwise drop the sample.
		if !p.SupportsPlatformAt(device.Browser, c.mid) {
			return telemetry.ViewRecord{}, false
		}
		pl, mix = device.Browser, c.devices(device.Browser)
		j = slices.IndexFunc(mix.models, func(m device.Model) bool { return m.Name == "HTML5" })
		if proto, found = c.protocol(mix, j, src.Split("fallback")); !found {
			return telemetry.ViewRecord{}, false
		}
	}
	model := mix.models[j]

	// CDN selection honoring live/VoD segregation.
	eligible := c.cdns(live)
	cdn, ok := eligible.pick(src.Split("cdn"))
	if !ok {
		return telemetry.ViewRecord{}, false
	}
	cdnName, cdns := eligible.names[cdn], eligible.alone[cdn]
	if c.assigned > 1 && src.Split("midstream").Bool(0.08) {
		if second, ok := eligible.pick(src.Split("cdn2")); ok && second != cdn {
			cdns = append(cdns, eligible.names[second])
		}
	}

	// Content identity and syndication.
	videoRank := c.zipf.Draw(src.Split("video"))
	var videoID, contentID, owner string
	syndicated := false
	if p.IsSyndicator && len(p.CarriesFrom) > 0 && src.Split("synd").Bool(p.SyndShare) {
		from := src.Split("which-owner").Intn(len(p.CarriesFrom))
		owner = p.CarriesFrom[from]
		contentID = c.strs.carriedID(from, videoRank%carriedTitles)
		videoID = c.strs.syndicatedID(videoRank)
		syndicated = true
	} else {
		videoID = c.strs.videoID(videoRank)
		contentID = videoID
	}

	durH := durationHours(src.Split("dur"), pl)
	conn := connTypeFor(src.Split("conn"), pl)
	isp := netmodel.ISPs[src.Split("isp").Intn(len(netmodel.ISPs))]
	ts := snap.Start.Add(time.Duration(src.Split("ts").Float64() * float64(snap.Days) * float64(simclock.Day)))

	// Fast-path QoE: an analytic stand-in for full playback, used for
	// population-scale generation. The §6 experiments re-measure QoE
	// with the real player on the slices they study.
	cdnObj, _ := e.CDNs.ByName(cdnName)
	quality := 0.7
	if cdnObj != nil {
		quality = cdnObj.Quality(isp.Name)
	}
	prof := netmodel.PathProfile(isp, conn, quality)
	qsrc := src.Split("qoe")
	achievable := prof.MeanKbps * qsrc.Uniform(0.5, 0.95)
	avgKbps := math.Min(float64(c.ladder.Max()), achievable*0.8)
	if avgKbps < float64(c.ladder.Min()) {
		avgKbps = float64(c.ladder.Min())
	}
	rebufSec := 0.0
	if qsrc.Bool(0.18) { // most views play clean; a tail rebuffers
		rebufSec = qsrc.Exponential(0.012 * durH * 3600)
	}
	// A small organic failure rate: views that hit a fatal error
	// mid-session (§5's troubleshooting raw material). Failures are
	// uniform here; the triage test harness injects the structured
	// faults.
	failed := qsrc.Bool(baseFailureRate)

	rec := telemetry.ViewRecord{
		Timestamp:      ts,
		Publisher:      p.ID,
		VideoID:        videoID,
		URL:            c.strs.url(proto, eligible.index[cdn], syndicated, videoRank, videoID),
		Device:         model.Name,
		OS:             model.OS,
		CDNs:           cdns,
		Bitrates:       c.bitrates,
		ISP:            isp.Name,
		ConnType:       conn.String(),
		Geo:            geoFor(src.Split("geo")),
		Live:           live,
		Syndicated:     syndicated,
		ContentID:      contentID,
		Owner:          owner,
		ViewSec:        durH * 3600,
		AvgBitrateKbps: avgKbps,
		RebufferSec:    rebufSec,
		Failed:         failed,
	}
	ver, agent := c.sdkVersion(mix, j, src.Split("sdk"))
	if model.Platform == device.Browser {
		rec.UserAgent = agent
	} else {
		rec.SDK = ver.Family
		rec.SDKVersion = ver.Version
	}
	return rec, true
}

// snapshotChoices holds what is the same for every view of one
// publisher in one snapshot — it depends on the snapshot's midpoint,
// not on the view — so that sampleView draws from it instead of
// rebuilding name and weight lists per view. It belongs to one
// samplePublisherSnapshot call, so no goroutine shares it.
type snapshotChoices struct {
	p           *Publisher
	strs        *pubStrings // the publisher's, owned by this call's worker
	mid         time.Time
	f           float64 // study fraction at mid
	platforms   []device.Platform
	platWeights []float64 // view-count weights, by platforms
	ladder      manifest.Ladder
	zipf        *dist.Zipf
	// bitrates is the ladder's bitrates, shared by every record of the
	// snapshot; its capacity is capped so an append copies.
	bitrates []int
	assigned int                              // CDNs the publisher uses at mid, eligible or not
	cdn      [2]cdnChoice                     // by content type: VoD, live
	mix      [device.Console + 1]deviceChoice // by platform, filled on first use
}

// cdnChoice is the CDNs eligible for one content type, by weight.
type cdnChoice struct {
	names   []string
	weights []float64
	// index is each CDN's position in the publisher's cdnNames, which
	// keys its URL table; alone is each CDN as the one-element CDN list
	// that every record served by it alone shares, its capacity capped
	// so an append copies.
	index []int
	alone [][]string
}

// deviceChoice is the device models of one platform, by view-hour
// weight (deviceMixAt), with each model's protocol and SDK choices,
// filled on first use.
type deviceChoice struct {
	models  []device.Model
	weights []float64
	proto   []protocolChoice
	sdk     []sdkChoice
}

// protocolChoice is the streaming protocols one device model plays of
// those the publisher packages, by preference weight.
type protocolChoice struct {
	filled  bool
	n       int // of the five a model can play
	protos  [5]manifest.Protocol
	weights [5]float64
}

// sdkChoice is the SDK versions one device model's users run, by
// weight, with a browser's user agent for each.
type sdkChoice struct {
	versions []device.SDKVersion
	weights  []float64
	agents   []string // by versions; nil off the browser platform
}

func newSnapshotChoices(strs *pubStrings, mid time.Time, platforms []device.Platform, platWeights []float64,
	ladder manifest.Ladder, zipf *dist.Zipf) *snapshotChoices {
	p := strs.p
	assignments := p.CDNsAt(mid)
	bitrates := ladder.Bitrates()
	c := &snapshotChoices{
		p:           p,
		strs:        strs,
		mid:         mid,
		f:           simclock.FractionThrough(mid),
		platforms:   platforms,
		platWeights: platWeights,
		ladder:      ladder,
		zipf:        zipf,
		bitrates:    bitrates[:len(bitrates):len(bitrates)],
		assigned:    len(assignments),
	}
	n := len(assignments)
	for i, live := range []bool{false, true} {
		d := &c.cdn[i]
		d.names, d.weights, d.index = make([]string, 0, n), make([]float64, 0, n), make([]int, 0, n)
		for _, a := range assignments {
			if live && a.VoDOnly || !live && a.LiveOnly {
				continue
			}
			if a.Weight <= 0 {
				continue
			}
			d.names = append(d.names, a.Name)
			d.weights = append(d.weights, a.Weight)
			d.index = append(d.index, slices.Index(p.cdnNames, a.Name))
		}
		d.alone = make([][]string, len(d.names))
		for j := range d.names {
			d.alone[j] = d.names[j : j+1 : j+1]
		}
	}
	return c
}

// devices returns the platform's device mix at the snapshot.
func (c *snapshotChoices) devices(pl device.Platform) *deviceChoice {
	d := &c.mix[pl]
	if d.models == nil {
		names, weights := deviceMixAt(pl, c.f)
		d.models = make([]device.Model, len(names))
		for i, name := range names {
			d.models[i], _ = device.ByName(name)
		}
		d.weights = weights
		d.proto = make([]protocolChoice, len(names))
		d.sdk = make([]sdkChoice, len(names))
	}
	return d
}

// protocol chooses a streaming protocol compatible with both the
// publisher's packaging and d's j-th device model, weighted by the
// publisher's protocol preferences. It consumes nothing from src when
// no protocol is compatible.
func (c *snapshotChoices) protocol(d *deviceChoice, j int, src *dist.Source) (manifest.Protocol, bool) {
	choice := &d.proto[j]
	if !choice.filled {
		choice.filled = true
		model := d.models[j]
		for _, proto := range []manifest.Protocol{manifest.HLS, manifest.DASH, manifest.Smooth, manifest.HDS, manifest.RTMP} {
			if !model.Supports(proto) {
				continue
			}
			w := c.p.protocolWeightAt(proto, c.mid)
			if proto == manifest.RTMP {
				if model.Name != "Flash" {
					continue
				}
				w = c.p.rtmpWeight0 * dist.Linear(c.f, 1, 0.02)
				if c.p.rtmpWeight0 == 0 {
					continue
				}
			}
			if w <= 0 {
				continue
			}
			choice.protos[choice.n], choice.weights[choice.n] = proto, w
			choice.n++
		}
	}
	if choice.n == 0 {
		return manifest.Unknown, false
	}
	return choice.protos[src.Categorical(choice.weights[:choice.n])], true
}

// cdns returns the CDNs eligible for the content type, honoring
// live/VoD segregation.
func (c *snapshotChoices) cdns(live bool) *cdnChoice {
	if live {
		return &c.cdn[1]
	}
	return &c.cdn[0]
}

// pick draws a CDN, as an index into names; it consumes nothing from
// src when no CDN is eligible.
func (c *cdnChoice) pick(src *dist.Source) (int, bool) {
	if len(c.names) == 0 {
		return 0, false
	}
	return src.Categorical(c.weights), true
}

// sdkVersion draws the SDK version d's j-th device model runs, lagging
// behind the newest release per the publisher's supported window, and
// on a browser the user agent it reports.
func (c *snapshotChoices) sdkVersion(d *deviceChoice, j int, src *dist.Source) (device.SDKVersion, string) {
	choice := &d.sdk[j]
	if choice.versions == nil {
		model := d.models[j]
		choice.versions = model.VersionsInUse(c.mid, c.p.SDKLag)
		// Newer versions are more common; weight geometrically.
		choice.weights = make([]float64, len(choice.versions))
		w := 1.0
		for i := range choice.versions {
			choice.weights[i] = w
			w *= 0.55
		}
		if model.Platform == device.Browser {
			choice.agents = make([]string, len(choice.versions))
			for i, v := range choice.versions {
				choice.agents[i] = c.strs.userAgent(model, v)
			}
		}
	}
	i := src.Categorical(choice.weights)
	if choice.agents == nil {
		return choice.versions[i], ""
	}
	return choice.versions[i], choice.agents[i]
}

// cdnBaseURL mints the per-publisher base URL on a CDN host.
func cdnBaseURL(cdnName, pubID string) string {
	return "http://cdn-" + cdnName + ".example.net/" + pubID
}

// appendRank appends rank as fmt's %04d renders a non-negative int.
func appendRank(dst []byte, rank int) []byte {
	for d := 1000; d > rank && d > 1; d /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(rank), 10)
}
