package ecosystem

import (
	"testing"

	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// testEco builds a small-stride ecosystem once per test binary.
var testEcoCache *Ecosystem

func testEco(t *testing.T) *Ecosystem {
	t.Helper()
	if testEcoCache == nil {
		testEcoCache = New(Config{SnapshotStride: 8})
		if err := testEcoCache.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return testEcoCache
}

func TestPopulationShape(t *testing.T) {
	e := testEco(t)
	want := 0
	for _, c := range bucketCounts {
		want += c
	}
	if len(e.Publishers) != want {
		t.Fatalf("population = %d, want %d", len(e.Publishers), want)
	}
	if len(e.Publishers) < 100 {
		t.Fatal("the paper studies more than one hundred publishers")
	}
	counts := map[Bucket]int{}
	ids := map[string]bool{}
	for _, p := range e.Publishers {
		counts[p.Bucket]++
		if ids[p.ID] {
			t.Fatalf("duplicate publisher ID %s", p.ID)
		}
		ids[p.ID] = true
	}
	for b := Bucket(0); b < NumBuckets; b++ {
		if counts[b] != bucketCounts[b] {
			t.Errorf("bucket %d has %d publishers, want %d", b, counts[b], bucketCounts[b])
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(Config{SnapshotStride: 20})
	b := New(Config{SnapshotStride: 20})
	ra := a.GenerateSnapshot(a.Schedule.Latest())
	rb := b.GenerateSnapshot(b.Schedule.Latest())
	if len(ra) != len(rb) {
		t.Fatalf("runs differ in record count: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].URL != rb[i].URL || ra[i].ViewSec != rb[i].ViewSec || ra[i].Device != rb[i].Device {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
	c := New(Config{Seed: 99, SnapshotStride: 20})
	rc := c.GenerateSnapshot(c.Schedule.Latest())
	same := len(rc) == len(ra)
	if same {
		diff := false
		for i := range ra {
			if ra[i].URL != rc[i].URL {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestStrideKeepsLatestSnapshot(t *testing.T) {
	full := simclock.DefaultSchedule()
	e := New(Config{SnapshotStride: 10})
	if e.Schedule.Latest().Index != full.Latest().Index {
		t.Fatal("stride dropped the latest snapshot")
	}
}

// latestRecords generates the latest snapshot once for the anchor tests.
var latestCache []telemetry.ViewRecord

func latestRecords(t *testing.T) []telemetry.ViewRecord {
	t.Helper()
	if latestCache == nil {
		e := testEco(t)
		latestCache = e.GenerateSnapshot(e.Schedule.Latest())
	}
	return latestCache
}

func firstRecords(t *testing.T) []telemetry.ViewRecord {
	t.Helper()
	e := testEco(t)
	return e.GenerateSnapshot(e.Schedule[0])
}

// shareBy sums view-hour shares keyed by an extractor.
func shareBy(recs []telemetry.ViewRecord, key func(*telemetry.ViewRecord) string) map[string]float64 {
	total := 0.0
	m := map[string]float64{}
	for i := range recs {
		vh := recs[i].ViewHours()
		total += vh
		m[key(&recs[i])] += vh
	}
	for k := range m {
		m[k] /= total
	}
	return m
}

func protoOf(r *telemetry.ViewRecord) string { return manifest.InferProtocol(r.URL).String() }

func platformOf(r *telemetry.ViewRecord) string {
	m, _ := device.ByName(r.Device)
	return m.Platform.String()
}

// TestAnchorProtocolViewHours checks Fig 2b's endpoints: DASH grows
// from a few percent to 38-45% of view-hours while HLS stays dominant
// and HDS collapses.
func TestAnchorProtocolViewHours(t *testing.T) {
	first := shareBy(firstRecords(t), protoOf)
	latest := shareBy(latestRecords(t), protoOf)
	if d := first["DASH"]; d > 0.10 {
		t.Errorf("DASH share at start = %.2f, want small (~3%%)", d)
	}
	if d := latest["DASH"]; d < 0.33 || d > 0.50 {
		t.Errorf("DASH share latest = %.2f, want 0.38±", d)
	}
	if h := latest["HLS"]; h < 0.38 || h > 0.62 {
		t.Errorf("HLS share latest = %.2f, want dominant alongside DASH", h)
	}
	if hds := latest["HDS"]; hds > 0.05 {
		t.Errorf("HDS share latest = %.2f, want near zero", hds)
	}
	if first["HDS"] < latest["HDS"] {
		t.Error("HDS must decline over the study")
	}
	// RTMP: 1.6% -> 0.1% of view-hours (§4.1).
	if r := first["RTMP"]; r < 0.002 || r > 0.04 {
		t.Errorf("RTMP share at start = %.3f, want ~0.016", r)
	}
	if r := latest["RTMP"]; r > 0.005 {
		t.Errorf("RTMP share latest = %.3f, want ~0.001", r)
	}
}

// TestAnchorDASHDrivenByGiants checks Fig 2c: excluding the DASH
// drivers, DASH accounts for under ~8% of view-hours.
func TestAnchorDASHDrivenByGiants(t *testing.T) {
	e := testEco(t)
	drivers := map[string]bool{}
	for _, p := range e.Publishers {
		if p.DASHDriver {
			drivers[p.ID] = true
		}
	}
	if len(drivers) < 2 || len(drivers) > 8 {
		t.Fatalf("N = %d DASH drivers, want a small handful", len(drivers))
	}
	var rest []telemetry.ViewRecord
	for _, r := range latestRecords(t) {
		if !drivers[r.Publisher] {
			rest = append(rest, r)
		}
	}
	share := shareBy(rest, protoOf)
	if d := share["DASH"]; d > 0.10 {
		t.Errorf("DASH share excluding drivers = %.2f, want < 0.10", d)
	}
}

// TestAnchorPlatformViewHours checks Fig 6a's endpoints.
func TestAnchorPlatformViewHours(t *testing.T) {
	first := shareBy(firstRecords(t), platformOf)
	latest := shareBy(latestRecords(t), platformOf)
	if b := first["Browser"]; b < 0.50 || b > 0.72 {
		t.Errorf("browser share at start = %.2f, want ~0.60", b)
	}
	if b := latest["Browser"]; b > 0.30 {
		t.Errorf("browser share latest = %.2f, want < 0.25-0.30", b)
	}
	if s := latest["SetTop"]; s < 0.33 || s > 0.55 {
		t.Errorf("set-top share latest = %.2f, want ~0.40", s)
	}
	if m := latest["Mobile"]; m < 0.14 || m > 0.30 {
		t.Errorf("mobile share latest = %.2f, want 0.20-0.25", m)
	}
	if tv := latest["SmartTV"]; tv > 0.07 {
		t.Errorf("smart-TV share latest = %.2f, want < 0.05", tv)
	}
	if first["SetTop"] > latest["SetTop"] {
		t.Error("set-top view-hours must grow")
	}
}

// TestAnchorSetTopViewsVsViewHours checks the Fig 6a/6c contrast: the
// set-top's view share lags far behind its view-hour share because
// set-top views run long.
func TestAnchorSetTopViewsVsViewHours(t *testing.T) {
	recs := latestRecords(t)
	totalViews, settopViews := 0.0, 0.0
	for i := range recs {
		v := recs[i].Views()
		totalViews += v
		if platformOf(&recs[i]) == "SetTop" {
			settopViews += v
		}
	}
	viewShare := settopViews / totalViews
	vhShare := shareBy(recs, platformOf)["SetTop"]
	if viewShare > 0.30 {
		t.Errorf("set-top view share = %.2f, want ~0.20", viewShare)
	}
	if vhShare < viewShare*1.4 {
		t.Errorf("set-top VH share %.2f should far exceed view share %.2f", vhShare, viewShare)
	}
}

// TestAnchorViewDurations checks Fig 8: ~24% of mobile/browser views
// exceed 0.2 hours versus >60% of set-top views.
func TestAnchorViewDurations(t *testing.T) {
	recs := latestRecords(t)
	over, count := map[string]float64{}, map[string]float64{}
	for i := range recs {
		pl := platformOf(&recs[i])
		count[pl]++
		if recs[i].ViewSec > 0.2*3600 {
			over[pl]++
		}
	}
	mob := over["Mobile"] / count["Mobile"]
	brw := over["Browser"] / count["Browser"]
	set := over["SetTop"] / count["SetTop"]
	if mob < 0.12 || mob > 0.32 {
		t.Errorf("mobile views > 0.2h = %.2f, want ~0.24", mob)
	}
	if brw < 0.12 || brw > 0.34 {
		t.Errorf("browser views > 0.2h = %.2f, want ~0.24", brw)
	}
	if set < 0.60 {
		t.Errorf("set-top views > 0.2h = %.2f, want > 0.60", set)
	}
}

// TestAnchorCDNShares checks Fig 11: A dominant early; A, B, C each
// carrying 20-35% of view-hours at the end with D and E small.
func TestAnchorCDNShares(t *testing.T) {
	cdnOf := func(r *telemetry.ViewRecord) string { return r.CDNs[0] }
	first := shareBy(firstRecords(t), cdnOf)
	latest := shareBy(latestRecords(t), cdnOf)
	if a := first["A"]; a < 0.5 {
		t.Errorf("CDN A share at start = %.2f, want dominant", a)
	}
	for _, name := range []string{"A", "B", "C"} {
		if s := latest[name]; s < 0.20 || s > 0.40 {
			t.Errorf("CDN %s share latest = %.2f, want 0.20-0.35", name, s)
		}
	}
	for _, name := range []string{"D", "E"} {
		if s := latest[name]; s > 0.10 {
			t.Errorf("CDN %s share latest = %.2f, want ≤ ~0.05", name, s)
		}
	}
}

// TestAnchorCDNCounts checks Fig 12a/12b's extremes.
func TestAnchorCDNCounts(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	recs := latestRecords(t)
	pubVH := map[string]float64{}
	total := 0.0
	for i := range recs {
		vh := recs[i].ViewHours()
		pubVH[recs[i].Publisher] += vh
		total += vh
	}
	countPubs := map[int]int{}
	countVH := map[int]float64{}
	for _, p := range e.Publishers {
		n := len(p.CDNsAt(latest))
		countPubs[n]++
		countVH[n] += pubVH[p.ID]
		switch {
		case p.Bucket == 0 && n != 1:
			t.Errorf("%s (bucket 0) uses %d CDNs, want 1", p.ID, n)
		case p.Bucket == NumBuckets-1 && n < 4:
			t.Errorf("%s (giant) uses %d CDNs, want ≥ 4", p.ID, n)
		}
	}
	nPubs := len(e.Publishers)
	if frac := float64(countPubs[1]) / float64(nPubs); frac < 0.40 {
		t.Errorf("single-CDN publishers = %.2f of population, want > 0.40", frac)
	}
	if share := countVH[1] / total; share > 0.05 {
		t.Errorf("single-CDN publishers carry %.2f of VH, want < 0.05", share)
	}
	if frac := float64(countPubs[5]) / float64(nPubs); frac > 0.10 {
		t.Errorf("five-CDN publishers = %.2f of population, want < 0.10", frac)
	}
	if share := countVH[5] / total; share < 0.50 {
		t.Errorf("five-CDN publishers carry %.2f of VH, want > 0.50", share)
	}
	if share := (countVH[4] + countVH[5]) / total; share < 0.70 {
		t.Errorf("4-5 CDN publishers carry %.2f of VH, want ~0.80", share)
	}
}

// TestAnchorMultiEverything checks the §4.4 summary: more than 90% of
// view-hours come from publishers supporting >1 protocol, >1 CDN, and
// >1 platform.
func TestAnchorMultiEverything(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	recs := latestRecords(t)
	pubVH := map[string]float64{}
	total := 0.0
	for i := range recs {
		vh := recs[i].ViewHours()
		pubVH[recs[i].Publisher] += vh
		total += vh
	}
	var multiProto, multiCDN, multiPlat float64
	for _, p := range e.Publishers {
		if len(p.ProtocolsAt(latest)) > 1 {
			multiProto += pubVH[p.ID]
		}
		if len(p.CDNsAt(latest)) > 1 {
			multiCDN += pubVH[p.ID]
		}
		if len(p.PlatformsAt(latest)) > 1 {
			multiPlat += pubVH[p.ID]
		}
	}
	for name, share := range map[string]float64{
		"protocol": multiProto / total,
		"CDN":      multiCDN / total,
		"platform": multiPlat / total,
	} {
		if share < 0.90 {
			t.Errorf("multi-%s publishers carry %.2f of VH, want > 0.90", name, share)
		}
	}
}

// TestAnchorProtocolSupport checks Fig 2a's endpoints across
// publishers.
func TestAnchorProtocolSupport(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	start := simclock.StudyStart
	frac := func(proto manifest.Protocol, at ...bool) (s, l float64) {
		var cs, cl int
		for _, p := range e.Publishers {
			if p.SupportsProtocolAt(proto, start) {
				cs++
			}
			if p.SupportsProtocolAt(proto, latest) {
				cl++
			}
		}
		n := float64(len(e.Publishers))
		return float64(cs) / n, float64(cl) / n
	}
	if _, hls := frac(manifest.HLS); hls < 0.85 || hls > 0.98 {
		t.Errorf("HLS support latest = %.2f, want ~0.91", hls)
	}
	dashS, dashL := frac(manifest.DASH)
	if dashS < 0.05 || dashS > 0.18 {
		t.Errorf("DASH support at start = %.2f, want ~0.10", dashS)
	}
	if dashL < 0.33 || dashL > 0.52 {
		t.Errorf("DASH support latest = %.2f, want ~0.43", dashL)
	}
	_, smooth := frac(manifest.Smooth)
	if smooth < 0.30 || smooth > 0.50 {
		t.Errorf("Smooth support latest = %.2f, want ~0.40", smooth)
	}
	hdsS, hdsL := frac(manifest.HDS)
	if hdsL > hdsS {
		t.Error("HDS support must decline")
	}
	if hdsL < 0.10 || hdsL > 0.28 {
		t.Errorf("HDS support latest = %.2f, want ~0.19", hdsL)
	}
}

// TestAnchorSegregation checks §4.3's live/VoD CDN segregation shares.
func TestAnchorSegregation(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	var eligible, vodOnly, liveOnly, extreme int
	for _, p := range e.Publishers {
		as := p.CDNsAt(latest)
		if len(as) < 2 || p.LiveShare <= 0.05 || p.LiveShare >= 0.95 {
			continue
		}
		eligible++
		hasVoD, hasLive := false, false
		segregated := 0
		for _, a := range as {
			if a.VoDOnly {
				hasVoD = true
				segregated++
			}
			if a.LiveOnly {
				hasLive = true
				segregated++
			}
		}
		if hasVoD {
			vodOnly++
		}
		if hasLive {
			liveOnly++
		}
		if segregated == len(as) && len(as) >= 2 {
			extreme++
		}
	}
	if eligible == 0 {
		t.Fatal("no publishers eligible for segregation analysis")
	}
	fv := float64(vodOnly) / float64(eligible)
	fl := float64(liveOnly) / float64(eligible)
	if fv < 0.18 || fv > 0.45 {
		t.Errorf("VoD-only segregation = %.2f of eligible, want ~0.30", fv)
	}
	if fl < 0.08 || fl > 0.32 {
		t.Errorf("live-only segregation = %.2f of eligible, want ~0.19", fl)
	}
	if extreme < 1 {
		t.Error("the extreme fully-segregated publisher is missing")
	}
}

// TestAnchorSyndicationGraph checks Fig 14: >80% of owners use at least
// one syndicator and the top quintile reaches about a third of them.
func TestAnchorSyndicationGraph(t *testing.T) {
	e := testEco(t)
	var owners, withSynd, third int
	for _, p := range e.Publishers {
		if p.IsSyndicator {
			if len(p.CarriesFrom) == 0 {
				t.Errorf("syndicator %s carries nothing", p.ID)
			}
			continue
		}
		owners++
		if len(p.SyndicatesTo) > 0 {
			withSynd++
		}
		if float64(len(p.SyndicatesTo)) >= float64(FullSyndicatorCount)/3 {
			third++
		}
	}
	if owners == 0 {
		t.Fatal("no owners")
	}
	if f := float64(withSynd) / float64(owners); f < 0.75 {
		t.Errorf("owners with ≥1 syndicator = %.2f, want > 0.80", f)
	}
	f := float64(third) / float64(owners)
	if f < 0.12 || f > 0.30 {
		t.Errorf("owners reaching 1/3 of syndicators = %.2f, want ~0.20", f)
	}
}

func TestRecordsAreWellFormed(t *testing.T) {
	e := testEco(t)
	snap := e.Schedule.Latest()
	for _, r := range latestRecords(t) {
		if r.Publisher == "" || r.VideoID == "" || r.URL == "" {
			t.Fatalf("incomplete record %+v", r)
		}
		if !snap.Contains(r.Timestamp) {
			t.Fatalf("record timestamp %v outside snapshot %v", r.Timestamp, snap.Label())
		}
		if r.ViewSec <= 0 || r.Weight <= 0 {
			t.Fatalf("degenerate record: viewsec=%v weight=%v", r.ViewSec, r.Weight)
		}
		if len(r.CDNs) == 0 || len(r.Bitrates) == 0 {
			t.Fatalf("record missing CDN or ladder: %+v", r)
		}
		p := manifest.InferProtocol(r.URL)
		if p == manifest.Unknown {
			t.Fatalf("record URL %q infers no protocol", r.URL)
		}
		m, ok := device.ByName(r.Device)
		if !ok {
			t.Fatalf("record uses unknown device %q", r.Device)
		}
		if !m.Supports(p) {
			t.Fatalf("%s cannot play %v (url %s)", r.Device, p, r.URL)
		}
		if m.Platform == device.Browser {
			if r.UserAgent == "" || r.SDK != "" {
				t.Fatalf("browser record must carry a user agent, not an SDK: %+v", r)
			}
		} else if r.SDK == "" || r.SDKVersion == "" {
			t.Fatalf("app record must carry SDK and version: %+v", r)
		}
		if r.Syndicated && (r.Owner == "" || r.ContentID == r.VideoID) {
			t.Fatalf("syndicated record missing owner identity: %+v", r)
		}
	}
}

func TestRecordsRespectPublisherConfig(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	byID := map[string]*Publisher{}
	for _, p := range e.Publishers {
		byID[p.ID] = p
	}
	for _, r := range latestRecords(t) {
		p, ok := byID[r.Publisher]
		if !ok {
			t.Fatalf("record from unknown publisher %s", r.Publisher)
		}
		proto := manifest.InferProtocol(r.URL)
		if proto != manifest.RTMP && !p.SupportsProtocolAt(proto, latest) {
			t.Fatalf("%s does not package %v at the latest snapshot", p.ID, proto)
		}
		names := p.CDNNamesAt(latest)
		for _, c := range r.CDNs {
			if !contains(names, c) {
				t.Fatalf("%s view served by unassigned CDN %s", p.ID, c)
			}
		}
	}
}

func TestAllCDNsObserved(t *testing.T) {
	e := testEco(t)
	used := map[string]bool{}
	for _, p := range e.Publishers {
		for _, name := range p.cdnNames {
			used[name] = true
		}
	}
	// §4.3: 36 CDNs observed across the dataset. Allow a little slack
	// for round-robin wrap.
	if len(used) < 30 {
		t.Fatalf("only %d distinct CDNs assigned, want ~36", len(used))
	}
}

func TestInventoryAt(t *testing.T) {
	e := testEco(t)
	latest := e.Schedule.Latest().Start
	invs := e.InventoryAt(latest)
	if len(invs) != len(e.Publishers) {
		t.Fatalf("inventories = %d, want %d", len(invs), len(e.Publishers))
	}
	maxSDKs := 0
	for _, inv := range invs {
		if inv.DailyVH <= 0 || inv.CatalogSize <= 0 {
			t.Fatalf("degenerate inventory %+v", inv)
		}
		if len(inv.Protocols) == 0 || len(inv.CDNs) == 0 || len(inv.DeviceModels) == 0 {
			t.Fatalf("empty inventory dimension for %s", inv.Publisher)
		}
		if len(inv.SDKVersions) > maxSDKs {
			maxSDKs = len(inv.SDKVersions)
		}
	}
	// §5: the biggest publishers maintain up to ~85 code bases.
	if maxSDKs < 40 || maxSDKs > 120 {
		t.Errorf("max unique SDKs = %d, want near 85", maxSDKs)
	}
}

func TestGenerateStoreStride(t *testing.T) {
	e := New(Config{SnapshotStride: 25})
	store := e.GenerateStore()
	if store.Len() == 0 {
		t.Fatal("empty store")
	}
	// Every scheduled snapshot should have records.
	ds := telemetry.NewDataset(store.All())
	for _, snap := range e.Schedule {
		if len(ds.Window(snap)) == 0 {
			t.Fatalf("snapshot %s has no records", snap.Label())
		}
	}
}
