package ecosystem

import (
	"fmt"
	"math"

	"vmp/internal/cdnsim"
	"vmp/internal/device"
	"vmp/internal/dist"
)

// bucketCounts is the publisher count per view-hour decade: ~110
// publishers with over 35% in the 100X-1000X bucket (Fig 3b) and a
// handful of giants at the top.
var bucketCounts = [NumBuckets]int{9, 15, 22, 40, 17, 6, 3}

// FullSyndicatorCount is the number of full syndicators in the
// population; Fig 14 measures owners against this denominator.
const FullSyndicatorCount = 24

// buildPopulation creates the publisher population from the root
// source. The construction is deterministic in the seed.
func buildPopulation(root *dist.Source) []*Publisher {
	var pubs []*Publisher
	idx := 0
	for b := 0; b < NumBuckets; b++ {
		for k := 0; k < bucketCounts[b]; k++ {
			src := root.Splitf("publisher", idx)
			p := buildPublisher(src, idx, Bucket(b))
			pubs = append(pubs, p)
			idx++
		}
	}
	assignCDNs(root, pubs)
	buildSyndication(root.Split("syndication"), pubs)
	return pubs
}

// buildPublisher fills in everything about one publisher except its CDN
// assignment and syndication links, which need population-wide context.
func buildPublisher(src *dist.Source, idx int, b Bucket) *Publisher {
	p := &Publisher{
		ID:     fmt.Sprintf("pub%03d", idx),
		Bucket: b,
	}
	// Daily view-hours: decade b spans [10^(b-1), 10^b) X-units, with
	// the giants' exponent damped so the top three don't swamp the
	// population beyond what the paper's exclusion figures imply.
	u := src.Split("vh").Float64()
	if b == NumBuckets-1 {
		p.DailyVH = math.Pow(10, 5+0.25*u)
	} else {
		p.DailyVH = math.Pow(10, float64(b)-1+u)
	}
	p.Growth = src.Split("growth").Uniform(-0.15, 0.35)

	buildProtocols(src.Split("protocols"), p)
	buildPlatforms(src.Split("platforms"), p)

	// Content shape. Catalogue size grows sub-linearly with view-hours
	// (titles ∝ VH^0.5), which combined with protocol growth produces
	// Fig 13b's per-decade factor.
	p.CatalogSize = int(24 * math.Pow(p.DailyVH, 0.5))
	if p.CatalogSize < 8 {
		p.CatalogSize = 8
	}
	p.MeanVideoHours = src.Split("videolen").Uniform(0.35, 1.2)
	if src.Split("liveheavy").Bool(0.25) {
		p.LiveShare = src.Split("liveshare").Uniform(0.30, 0.70)
	} else {
		p.LiveShare = src.Split("liveshare").Uniform(0, 0.12)
	}
	// RTMP lingers at the start of the window for live-leaning,
	// Flash-era publishers (§4.1: 1.6% of view-hours in January 2016,
	// fading to 0.1% by March 2018).
	if p.LiveShare > 0.2 && src.Split("rtmp").Bool(0.6) {
		p.rtmpWeight0 = 0.95
	}
	p.DRM = src.Split("drm").Bool(0.4)
	// Legacy-SDK support deepens with publisher size: the giants keep
	// up to 85 device-SDK-version code bases alive (§5).
	p.SDKLag = 1 + int(float64(b)*0.8)
	return p
}

// buildProtocols draws the publisher's protocol support trajectory.
// Targets (measured across publishers, latest snapshot): HLS ≈91%,
// DASH 10%→43%, Smooth ≈40% flat, HDS ≈35%→19%.
func buildProtocols(src *dist.Source, p *Publisher) {
	never := 2.0 // an adoption fraction that never arrives
	p.hlsFrom, p.dashFrom, p.smoothFrom, p.hdsFrom = never, never, never, never
	p.hdsUntil = never

	switch {
	case p.Bucket == NumBuckets-1:
		// Giants: HLS + DASH (+ Smooth for most), plus a legacy HDS
		// pipeline they retire mid-study. They are DASH drivers;
		// adoption lands early in the window so DASH view-hours ramp
		// as in Fig 2b (one driver is already converted at the start,
		// giving DASH its ~3% initial share).
		p.hlsFrom = 0
		p.DASHDriver = true
		p.dashFrom = src.Split("dash-t").Uniform(0, 0.35)
		if src.Split("dash-early").Bool(0.4) {
			p.dashFrom = 0
		}
		if src.Split("smooth").Bool(0.67) {
			p.smoothFrom = 0
		}
		p.hdsFrom = 0
		p.hdsUntil = src.Split("hds-t").Uniform(0.15, 0.45)
	case p.Bucket == NumBuckets-2:
		// 10^4X-10^5X: exactly two protocols by the latest snapshot,
		// HLS+DASH (Fig 3b's right-most displayed bucket is all
		// 2-protocol publishers); half of them are also DASH drivers,
		// and a legacy HDS pipeline retires early.
		p.hlsFrom = 0
		p.DASHDriver = src.Split("driver").Bool(0.5)
		p.dashFrom = src.Split("dash-t").Uniform(0, 0.5)
		p.hdsFrom = 0
		p.hdsUntil = src.Split("hds-t").Uniform(0.1, 0.4)
	default:
		if src.Split("hls").Bool(0.88) {
			p.hlsFrom = 0
		}
		// Protocol breadth is correlated within a publisher: some
		// organizations package for everything, most keep one or two
		// pipelines. The split reproduces both Fig 2a's per-protocol
		// support levels and Fig 3a's 1-protocol share.
		multi := src.Split("persona").Bool(0.50)
		pDash, pSmooth, pHDS := 0.12, 0.10, 0.18
		if multi {
			pDash, pSmooth, pHDS = 0.55, 0.65, 0.38
		}
		if src.Split("dash").Bool(pDash) {
			if src.Split("dash-early").Bool(0.25) {
				p.dashFrom = 0
			} else {
				p.dashFrom = src.Split("dash-t").Uniform(0, 1)
			}
		}
		if src.Split("smooth").Bool(pSmooth) {
			p.smoothFrom = 0
		}
		if src.Split("hds").Bool(pHDS) {
			p.hdsFrom = 0
			if src.Split("hds-drop").Bool(0.48) {
				p.hdsUntil = src.Split("hds-drop-t").Uniform(0.1, 1)
			}
		}
		// A publisher with nothing supports HLS after all; everyone
		// packages something. Likewise a publisher whose only pipeline
		// is HDS and who retires it migrates to HLS at the drop date.
		if p.hlsFrom >= never && p.dashFrom >= never && p.smoothFrom >= never {
			if p.hdsFrom >= never {
				p.hlsFrom = 0
			} else if p.hdsUntil <= 1 {
				p.hlsFrom = p.hdsUntil
			}
		}
	}
}

// buildPlatforms draws platform adoption dates. Targets across
// publishers: browser ~98% flat, mobile 80%→95%, set-top 18%→55%,
// smart TV 17%→62%, console ~22%→30% (Fig 7); the giants support all
// five throughout, which concentrates all-five support among the
// publishers carrying most view-hours (Fig 9a).
func buildPlatforms(src *dist.Source, p *Publisher) {
	const never = 2.0
	for i := range p.platformFrom {
		p.platformFrom[i] = never
	}
	set := func(pl device.Platform, f float64) { p.platformFrom[int(pl)] = f }

	if p.Bucket >= NumBuckets-1 {
		// The giants ship everywhere throughout the window.
		for _, pl := range device.Platforms {
			set(pl, 0)
		}
		return
	}
	if p.Bucket >= 4 {
		// Large publishers: browser and mobile always; living-room
		// apps arrive early-to-mid study for those that lack them.
		set(device.Browser, 0)
		set(device.Mobile, 0)
		if src.Split("settop").Bool(0.5) {
			set(device.SetTop, 0)
		} else {
			set(device.SetTop, src.Split("settop-t").Uniform(0, 0.6))
		}
		if src.Split("smarttv").Bool(0.35) {
			set(device.SmartTV, 0)
		} else {
			set(device.SmartTV, src.Split("smarttv-t").Uniform(0, 0.8))
		}
		if src.Split("console").Bool(0.6) {
			set(device.Console, 0)
		} else if src.Split("console-late").Bool(0.5) {
			set(device.Console, src.Split("console-t").Uniform(0, 1))
		}
		return
	}
	if src.Split("browser").Bool(0.98) {
		set(device.Browser, 0)
	}
	switch {
	case src.Split("mobile").Bool(0.78):
		set(device.Mobile, 0)
	case src.Split("mobile-late").Bool(0.85):
		set(device.Mobile, src.Split("mobile-t").Uniform(0, 1))
	}
	// Larger publishers adopt the living room sooner and more often.
	sizeBoost := float64(p.Bucket) * 0.05
	switch {
	case src.Split("settop").Bool(0.08 + sizeBoost):
		set(device.SetTop, 0)
	case src.Split("settop-late").Bool(0.38 + sizeBoost):
		set(device.SetTop, src.Split("settop-t").Uniform(0, 1))
	}
	switch {
	case src.Split("smarttv").Bool(0.10 + sizeBoost):
		set(device.SmartTV, 0)
	case src.Split("smarttv-late").Bool(0.40 + sizeBoost):
		set(device.SmartTV, src.Split("smarttv-t").Uniform(0, 1))
	}
	switch {
	case src.Split("console").Bool(0.15):
		set(device.Console, 0)
	case src.Split("console-late").Bool(0.12):
		set(device.Console, src.Split("console-t").Uniform(0, 1))
	}
	// A publisher that ended up with nothing gets a browser player:
	// every publisher reaches users somehow.
	any := false
	for _, f := range p.platformFrom {
		if f <= 1 {
			any = true
			break
		}
	}
	if !any {
		set(device.Browser, 0)
	}
}

// cdnCountFor draws the publisher's eventual CDN count by bucket,
// following Fig 12b: all sub-X publishers single-CDN; the 10^4-10^5
// bucket spans 1-5; everything above 10^5 uses at least 4.
func cdnCountFor(src *dist.Source, b Bucket) int {
	switch b {
	case 0:
		return 1
	case 1, 2:
		if src.Bool(0.35) {
			return 2
		}
		return 1
	case 3:
		return 1 + src.Intn(3) // 1-3
	case 4:
		return 2 + src.Intn(4) // 2-5
	case 5:
		// Mostly 4-5 with a couple of outliers spanning the 1-5 range.
		switch src.Intn(6) {
		case 0:
			return 1
		case 1:
			return 3
		case 2, 3:
			return 4
		default:
			return 5
		}
	default:
		if src.Bool(0.33) {
			return 4
		}
		return 5
	}
}

// assignCDNs gives every publisher its CDN set, adoption dates, and
// live/VoD segregation flags. It needs the whole population to
// round-robin minor CDNs so all 36 appear in the dataset.
func assignCDNs(root *dist.Source, pubs []*Publisher) {
	minorPool := minorCDNNames()
	minorNext := 0
	drawMinor := func() string {
		name := minorPool[minorNext%len(minorPool)]
		minorNext++
		return name
	}
	for i, p := range pubs {
		src := root.Splitf("cdn-assign", i)
		n := cdnCountFor(src.Split("count"), p.Bucket)
		// First CDN: A for ~80% of publishers (Fig 11a), otherwise one
		// of the other majors or a regional.
		var names []string
		if src.Split("first").Bool(0.80) {
			names = append(names, "A")
		} else {
			names = append(names, []string{"B", "C", "D", "E", drawMinor()}[src.Split("first-alt").Intn(5)])
		}
		// Subsequent CDNs: C is the most common second choice, then B,
		// with regionals appearing mostly among mid-size publishers.
		candidates := []string{"C", "B", "D", "E"}
		weights := []float64{0.34, 0.30, 0.14, 0.12}
		for len(names) < n {
			var pick string
			if (p.Bucket == 3 || p.Bucket == 4) && src.Split("minor").Bool(0.30) {
				pick = drawMinor()
			} else {
				pick = candidates[src.Splitf("next", len(names)).Categorical(weights)]
			}
			if contains(names, pick) {
				// Fall through the majors in order to keep the draw
				// terminating.
				for _, alt := range []string{"C", "B", "D", "E", "A"} {
					if !contains(names, alt) {
						pick = alt
						break
					}
				}
				if contains(names, pick) {
					pick = drawMinor()
					if contains(names, pick) {
						continue
					}
				}
			}
			names = append(names, pick)
		}
		p.cdnNames = names
		p.cdnFrom = make([]float64, len(names))
		p.cdnLiveOnly = make([]bool, len(names))
		p.cdnVoDOnly = make([]bool, len(names))
		// The first CDNs are in place at the window start; later ones
		// arrive during the study, which is what makes the
		// view-hour-weighted average CDN count grow faster than the
		// plain average (Fig 12c). Large publishers begin multi-CDN.
		inPlace := 2
		if p.Bucket >= 5 {
			inPlace = 3
		}
		for j := range names {
			if j < inPlace {
				p.cdnFrom[j] = 0
			} else {
				p.cdnFrom[j] = src.Splitf("cdn-t", j).Uniform(0, 0.8)
			}
		}
		p.shiftToBC = p.Bucket >= 5
		// Live/VoD segregation (§4.3): among multi-CDN publishers
		// serving both kinds of content, 30% keep a CDN VoD-only and
		// 19% keep one live-only.
		if n >= 2 && p.LiveShare > 0.05 && p.LiveShare < 0.95 {
			if src.Split("vod-only").Bool(0.30) {
				p.cdnVoDOnly[n-1] = true
			}
			if src.Split("live-only").Bool(0.19) {
				// Segregate a different CDN than the VoD-only one.
				j := n - 1
				if p.cdnVoDOnly[j] {
					j--
				}
				p.cdnLiveOnly[j] = true
			}
		}
	}
	// The extreme case §4.3 describes: one publisher serving all VoD
	// from one CDN and all live from another.
	for _, p := range pubs {
		if len(p.cdnNames) == 2 && p.LiveShare > 0.3 && p.LiveShare < 0.7 {
			p.cdnVoDOnly[0], p.cdnLiveOnly[0] = true, false
			p.cdnLiveOnly[1], p.cdnVoDOnly[1] = true, false
			break
		}
	}
}

// minorCDNNames returns the names of the 31 regional/internal CDNs in
// the cdnsim registry.
func minorCDNNames() []string {
	var names []string
	for i := len(cdnsim.TopCDNNames); i < cdnsim.TotalCDNCount; i++ {
		names = append(names, fmt.Sprintf("R%02d", i))
	}
	return names
}

// buildSyndication designates full syndicators and wires the
// owner→syndicator graph of §6. Fig 14's anchors: >80% of owners use at
// least one syndicator, and the top 20% of owners reach about a third
// of all full syndicators.
func buildSyndication(src *dist.Source, pubs []*Publisher) {
	// Full syndicators are mid-size publishers (buckets 2-4).
	var syndicators []*Publisher
	for _, p := range pubs {
		if len(syndicators) < FullSyndicatorCount && p.Bucket >= 2 && p.Bucket <= 4 {
			p.IsSyndicator = true
			p.SyndShare = src.Split("share-"+p.ID).Uniform(0.20, 0.50)
			syndicators = append(syndicators, p)
		}
	}
	for i, p := range pubs {
		if p.IsSyndicator {
			continue // syndicators are not owners in this model
		}
		osrc := src.Splitf("owner", i)
		k := syndicatorCountFor(osrc.Split("k").Float64())
		if k > len(syndicators) {
			k = len(syndicators)
		}
		perm := osrc.Split("perm").Perm(len(syndicators))
		for _, j := range perm[:k] {
			s := syndicators[j]
			p.SyndicatesTo = append(p.SyndicatesTo, s.ID)
			s.CarriesFrom = append(s.CarriesFrom, p.ID)
		}
	}
}

// syndicatorCountFor maps a uniform draw to the number of full
// syndicators an owner uses: 20% use none, the top quintile reaches 8
// of the 24 (≈ one third).
func syndicatorCountFor(u float64) int {
	switch {
	case u < 0.20:
		return 0
	case u < 0.45:
		return 1
	case u < 0.62:
		return 2
	case u < 0.72:
		return 3
	case u < 0.78:
		return 4
	case u < 0.80:
		return 6
	case u < 0.92:
		return 8
	default:
		return 9
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
