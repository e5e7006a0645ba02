package ecosystem

import (
	"fmt"
	"math"
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

// samplePublisherSnapshot emits the sampled view records for one
// publisher in one snapshot window.
func (e *Ecosystem) samplePublisherSnapshot(p *Publisher, snap simclock.Snapshot) []telemetry.ViewRecord {
	mid := snap.Start.Add(time.Duration(snap.Days) * simclock.Day / 2)
	vh := p.DailyViewHoursAt(mid) * float64(snap.Days)
	src := e.root.Split("sample-" + p.ID + "-" + snap.Label())

	platforms := p.PlatformsAt(mid)
	if len(platforms) == 0 {
		return nil
	}
	// platformWeightAt gives view-HOUR weights; dividing by the
	// platform's mean view duration converts them to view-count
	// weights so that, after durations are sampled, each platform's
	// share of view-hours matches its configured weight.
	vhWeights := make([]float64, len(platforms))
	platWeights := make([]float64, len(platforms))
	var vhTotal, viewTotal float64
	for i, pl := range platforms {
		vhWeights[i] = p.platformWeightAt(pl, mid)
		platWeights[i] = vhWeights[i] / meanDurationHours(pl)
		vhTotal += vhWeights[i]
		viewTotal += platWeights[i]
	}
	if vhTotal == 0 {
		return nil
	}
	// E[duration] under the view mix converts view-hours into the real
	// view count the sample represents.
	meanDur := vhTotal / viewTotal
	realViews := vh / meanDur
	n := sampleCount(vh)
	weight := realViews / float64(n)

	c := newSnapshotChoices(p, mid, platforms, platWeights, e.ladderFor(p), e.catalogZipf(p))
	records := make([]telemetry.ViewRecord, 0, n)
	for i := 0; i < n; i++ {
		vsrc := src.Splitf("view", i)
		rec, ok := e.sampleView(c, snap, vsrc)
		if !ok {
			continue
		}
		rec.Weight = weight
		records = append(records, rec)
	}
	return records
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
	var (
		model device.Model
		proto manifest.Protocol
		pl    device.Platform
	)
	found := false
	for attempt := 0; attempt < 5 && !found; attempt++ {
		asrc := src.Splitf("attempt", attempt)
		pl = c.platforms[asrc.Categorical(c.platWeights)]
		mix := c.devices(pl)
		model = mix.models[asrc.Categorical(mix.weights)]
		proto, found = c.protocol(model, asrc)
	}
	if !found {
		// Fall back to the universal combination if the publisher has
		// it; otherwise drop the sample.
		if html5, ok := device.ByName("HTML5"); ok && p.SupportsPlatformAt(device.Browser, c.mid) {
			model, pl = html5, device.Browser
			var ok2 bool
			proto, ok2 = c.protocol(model, src.Split("fallback"))
			if !ok2 {
				return telemetry.ViewRecord{}, false
			}
		} else {
			return telemetry.ViewRecord{}, false
		}
	}

	// CDN selection honoring live/VoD segregation.
	eligible := c.cdns(live)
	cdnName, ok := eligible.pick(src.Split("cdn"))
	if !ok {
		return telemetry.ViewRecord{}, false
	}
	cdns := []string{cdnName}
	if c.assigned > 1 && src.Split("midstream").Bool(0.08) {
		if second, ok := eligible.pick(src.Split("cdn2")); ok && second != cdnName {
			cdns = append(cdns, second)
		}
	}

	// Content identity and syndication.
	videoRank := c.zipf.Draw(src.Split("video"))
	var videoID, contentID, owner string
	syndicated := false
	if p.IsSyndicator && len(p.CarriesFrom) > 0 && src.Split("synd").Bool(p.SyndShare) {
		owner = p.CarriesFrom[src.Split("which-owner").Intn(len(p.CarriesFrom))]
		var buf [20]byte
		contentID = owner + "-v" + string(appendRank(buf[:0], videoRank%600))
		videoID = p.ID + "-s" + string(appendRank(buf[:0], videoRank))
		syndicated = true
	} else {
		videoID = p.VideoID(videoRank)
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
		URL:            manifest.ManifestURL(proto, cdnBaseURL(cdnName, p.ID), videoID),
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
	ver := c.sdkVersion(model, src.Split("sdk"))
	if model.Platform == device.Browser {
		rec.UserAgent = model.UserAgent(ver)
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
	mid         time.Time
	f           float64 // study fraction at mid
	platforms   []device.Platform
	platWeights []float64 // view-count weights, by platforms
	ladder      manifest.Ladder
	zipf        *dist.Zipf
	// bitrates is the ladder's bitrates, shared by every record of the
	// snapshot; its capacity is capped so an append copies.
	bitrates []int
	assigned int          // CDNs the publisher uses at mid, eligible or not
	cdn      [2]cdnChoice // by content type: VoD, live
	// mix, proto and sdk fill on first use: by platform, and by device
	// model name.
	mix   [device.Console + 1]deviceChoice
	proto map[string]protocolChoice
	sdk   map[string]sdkChoice
}

// cdnChoice is the CDNs eligible for one content type, by weight.
type cdnChoice struct {
	names   []string
	weights []float64
}

// deviceChoice is the device models of one platform, by view-hour
// weight (deviceMixAt).
type deviceChoice struct {
	models  []device.Model
	weights []float64
}

// protocolChoice is the streaming protocols one device model plays of
// those the publisher packages, by preference weight.
type protocolChoice struct {
	protos  []manifest.Protocol
	weights []float64
}

// sdkChoice is the SDK versions one device model's users run, by
// weight.
type sdkChoice struct {
	versions []device.SDKVersion
	weights  []float64
}

func newSnapshotChoices(p *Publisher, mid time.Time, platforms []device.Platform, platWeights []float64,
	ladder manifest.Ladder, zipf *dist.Zipf) *snapshotChoices {
	assignments := p.CDNsAt(mid)
	bitrates := ladder.Bitrates()
	c := &snapshotChoices{
		p:           p,
		mid:         mid,
		f:           simclock.FractionThrough(mid),
		platforms:   platforms,
		platWeights: platWeights,
		ladder:      ladder,
		zipf:        zipf,
		bitrates:    bitrates[:len(bitrates):len(bitrates)],
		assigned:    len(assignments),
		proto:       make(map[string]protocolChoice),
		sdk:         make(map[string]sdkChoice),
	}
	for i, live := range []bool{false, true} {
		for _, a := range assignments {
			if live && a.VoDOnly || !live && a.LiveOnly {
				continue
			}
			if a.Weight <= 0 {
				continue
			}
			c.cdn[i].names = append(c.cdn[i].names, a.Name)
			c.cdn[i].weights = append(c.cdn[i].weights, a.Weight)
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
	}
	return d
}

// protocol chooses a streaming protocol compatible with both the
// publisher's packaging and the device, weighted by the publisher's
// protocol preferences. It consumes nothing from src when no protocol
// is compatible.
func (c *snapshotChoices) protocol(model device.Model, src *dist.Source) (manifest.Protocol, bool) {
	choice, ok := c.proto[model.Name]
	if !ok {
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
			choice.protos = append(choice.protos, proto)
			choice.weights = append(choice.weights, w)
		}
		c.proto[model.Name] = choice
	}
	if len(choice.protos) == 0 {
		return manifest.Unknown, false
	}
	return choice.protos[src.Categorical(choice.weights)], true
}

// cdns returns the CDNs eligible for the content type, honoring
// live/VoD segregation.
func (c *snapshotChoices) cdns(live bool) *cdnChoice {
	if live {
		return &c.cdn[1]
	}
	return &c.cdn[0]
}

// pick draws a CDN name; it consumes nothing from src when no CDN is
// eligible.
func (c *cdnChoice) pick(src *dist.Source) (string, bool) {
	if len(c.names) == 0 {
		return "", false
	}
	return c.names[src.Categorical(c.weights)], true
}

// sdkVersion draws the SDK version a user's device runs, lagging
// behind the newest release per the publisher's supported window.
func (c *snapshotChoices) sdkVersion(model device.Model, src *dist.Source) device.SDKVersion {
	choice, ok := c.sdk[model.Name]
	if !ok {
		choice.versions = model.VersionsInUse(c.mid, c.p.SDKLag)
		// Newer versions are more common; weight geometrically.
		choice.weights = make([]float64, len(choice.versions))
		w := 1.0
		for i := range choice.versions {
			choice.weights[i] = w
			w *= 0.55
		}
		c.sdk[model.Name] = choice
	}
	return choice.versions[src.Categorical(choice.weights)]
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
