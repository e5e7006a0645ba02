package analytics

import (
	"math"
	"reflect"
	"testing"
	"time"

	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// protocolDim attributes a record to the streaming protocol inferred
// from its manifest URL (Table 1): the row-at-a-time reference of the
// Dataset's ProtocolCol.
func protocolDim(r *telemetry.ViewRecord) []string {
	return []string{manifest.InferProtocol(r.URL).String()}
}

// mk builds a minimal record.
func mk(pub string, day int, url, dev string, cdns []string, viewSec, weight float64, live bool) telemetry.ViewRecord {
	m, _ := device.ByName(dev)
	return telemetry.ViewRecord{
		Timestamp: simclock.DayTime(day).Add(time.Hour),
		Publisher: pub,
		VideoID:   "v",
		URL:       url,
		Device:    dev,
		OS:        m.OS,
		CDNs:      cdns,
		Bitrates:  []int{400},
		ViewSec:   viewSec,
		Weight:    weight,
		Live:      live,
	}
}

// dataset freezes recs the way a study does: a canonically ordered
// store, and the columns over its rows.
func dataset(recs ...telemetry.ViewRecord) *telemetry.Dataset {
	return telemetry.NewDataset(telemetry.NewStore(recs).All())
}

func twoSnapDataset() (*telemetry.Dataset, simclock.Schedule) {
	sched := simclock.MakeSchedule(14, 2)[:2] // days 0-1 and 14-15
	return dataset(
		// Snapshot 0: p1 all-HLS on A; p2 half DASH on B.
		mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 3600, 1, false),
		mk("p1", 0, "http://c/b.m3u8", "iPhone", []string{"A"}, 3600, 1, false),
		mk("p2", 1, "http://c/c.mpd", "AndroidPhone", []string{"B"}, 3600, 1, false),
		mk("p2", 1, "http://c/d.m3u8", "Roku", []string{"B"}, 3600, 1, false),
		// Snapshot 1: p2 goes all-DASH; p1 still HLS; p1 uses two CDNs
		// in one view.
		mk("p1", 14, "http://c/a.m3u8", "Roku", []string{"A", "B"}, 7200, 1, false),
		mk("p2", 15, "http://c/c.mpd", "AndroidPhone", []string{"B"}, 3600, 1, true),
		mk("p2", 15, "http://c/e.mpd", "SamsungTV", []string{"C"}, 3600, 1, false),
	), sched
}

func TestShareOfPublishers(t *testing.T) {
	s, sched := twoSnapDataset()
	ts := ShareOfPublishers(s, sched, protocolDim)
	// Snapshot 0: both publishers have HLS views -> 100%; DASH only p2.
	if got := ts.Series["HLS"][0]; got != 100 {
		t.Errorf("HLS pubs snap0 = %v, want 100", got)
	}
	if got := ts.Series["DASH"][0]; got != 50 {
		t.Errorf("DASH pubs snap0 = %v, want 50", got)
	}
	// Snapshot 1: HLS only p1 -> 50%.
	if got := ts.Latest("HLS"); got != 50 {
		t.Errorf("HLS pubs snap1 = %v, want 50", got)
	}
}

func TestShareOfViewHours(t *testing.T) {
	s, sched := twoSnapDataset()
	ts := ShareOfViewHours(s, sched, protocolDim, nil)
	// Snapshot 0: 4 equal view-hours, 3 HLS 1 DASH.
	if got := ts.Series["HLS"][0]; got != 75 {
		t.Errorf("HLS VH snap0 = %v, want 75", got)
	}
	if got := ts.Series["DASH"][0]; got != 25 {
		t.Errorf("DASH VH snap0 = %v, want 25", got)
	}
	// Snapshot 1: p1 2h HLS, p2 2h DASH.
	if got := ts.Latest("DASH"); got != 50 {
		t.Errorf("DASH VH snap1 = %v, want 50", got)
	}
}

func TestShareOfViewHoursExclusion(t *testing.T) {
	s, sched := twoSnapDataset()
	ts := ShareOfViewHours(s, sched, protocolDim, map[string]bool{"p2": true})
	if got := ts.First("HLS"); got != 100 {
		t.Errorf("HLS VH excluding p2 = %v, want 100", got)
	}
	if got := ts.First("DASH"); got != 0 {
		t.Errorf("DASH VH excluding p2 = %v, want 0", got)
	}
}

func TestMultiCDNViewSplitsViewHours(t *testing.T) {
	s, sched := twoSnapDataset()
	ts := ShareOfViewHours(s, sched, CDNDim, nil)
	// Snapshot 1: p1's 2h view split A/B (1h each); p2: 1h B, 1h C.
	// Totals: A=1, B=2, C=1 of 4.
	if got := ts.Latest("A"); got != 25 {
		t.Errorf("CDN A VH = %v, want 25", got)
	}
	if got := ts.Latest("B"); got != 50 {
		t.Errorf("CDN B VH = %v, want 50", got)
	}
}

func TestShareOfViewsWeighted(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	s := dataset(
		mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 60, 9, false),
		mk("p1", 0, "http://c/b.mpd", "Roku", []string{"A"}, 60, 1, false),
	)
	ts := ShareOfViews(s, sched, protocolDim, nil)
	if got := ts.Series["HLS"][0]; got != 90 {
		t.Errorf("weighted HLS view share = %v, want 90", got)
	}
}

func TestTimeSeriesAccessors(t *testing.T) {
	s, sched := twoSnapDataset()
	ts := ShareOfViewHours(s, sched, protocolDim, nil)
	if ts.First("HLS") != 75 || ts.Latest("HLS") != 50 {
		t.Errorf("First/Latest = %v/%v", ts.First("HLS"), ts.Latest("HLS"))
	}
	if ts.Latest("nope") != 0 || ts.First("nope") != 0 {
		t.Error("missing keys should read 0")
	}
	if len(ts.Snapshots) != 2 {
		t.Errorf("snapshots = %d", len(ts.Snapshots))
	}
}

func TestTopPublishersByViewHours(t *testing.T) {
	s, _ := twoSnapDataset()
	top := TopPublishersByViewHours(s.All(), 1)
	if len(top) != 1 || !top["p2"] {
		// p2: 1+1+1+1 = 4h; p1: 1+1+2 = 4h — tie broken by name? p1
		// has 4h too. Recompute: p1 records 3600+3600+7200 = 4h;
		// p2 = 3600*4 = 4h. Tie → lexicographic p1 first.
		if !top["p1"] {
			t.Fatalf("top = %v", top)
		}
	}
	if got := TopPublishersByViewHours(s.All(), 10); len(got) != 2 {
		t.Fatalf("asking for more than exist should return all: %v", got)
	}
}

// TestTopPublishersTieBreakByName: publishers with equal view-hours
// rank by name, so the top n of a tie is the same set on every call,
// whatever order the per-publisher map is walked in. Asked 50 times,
// since a walk that ignores the tie-break still lands on the right set
// some of the time.
func TestTopPublishersTieBreakByName(t *testing.T) {
	var recs []telemetry.ViewRecord
	for _, pub := range []string{"p6", "p5", "p4", "p3", "p2", "p1"} {
		recs = append(recs, mk(pub, 0, "http://c/a.m3u8", "Roku", []string{"A"}, 3600, 1, false))
	}
	for i := 0; i < 50; i++ {
		if top := TopPublishersByViewHours(recs, 3); len(top) != 3 || !top["p1"] || !top["p2"] || !top["p3"] {
			t.Fatalf("call %d: top 3 of a six-way tie = %v, want p1, p2, p3", i, top)
		}
	}
}

func TestInstancesPerPublisher(t *testing.T) {
	s, sched := twoSnapDataset()
	recs := s.Window(sched[0])
	h := InstancesPerPublisher(recs, protocolDim)
	// p1: {HLS} = 1 instance; p2: {HLS, DASH} = 2.
	p1, v1 := h.At(1)
	p2, v2 := h.At(2)
	if p1 != 50 || p2 != 50 {
		t.Fatalf("pub shares = %v/%v, want 50/50", p1, p2)
	}
	if v1 != 50 || v2 != 50 {
		t.Fatalf("VH shares = %v/%v, want 50/50", v1, v2)
	}
	if p, v := h.At(9); p != 0 || v != 0 {
		t.Error("missing count should read zeros")
	}
}

func TestVHBucket(t *testing.T) {
	cases := []struct {
		vh   float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 1}, {5, 1}, {10, 2}, {99, 2}, {1e5, 6}, {1e9, 6},
	}
	for _, c := range cases {
		if got := VHBucket(c.vh, 7); got != c.want {
			t.Errorf("VHBucket(%v) = %d, want %d", c.vh, got, c.want)
		}
	}
}

func TestInstancesByBucket(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	s := dataset(
		// p1: tiny (0.5 vh/day → bucket 0), 1 protocol.
		mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 1800, 2, false),
		// p2: 50 vh/day → bucket 2, 2 protocols.
		mk("p2", 0, "http://c/b.m3u8", "Roku", []string{"A"}, 3600, 50, false),
		mk("p2", 0, "http://c/c.mpd", "Roku", []string{"A"}, 3600, 50, false),
	)
	bb := InstancesByBucket(s.Window(sched[0]), protocolDim, 2, 7)
	if got := bb.Buckets[0][1]; got != 50 {
		t.Errorf("bucket0 count1 = %v, want 50", got)
	}
	if got := bb.Buckets[2][2]; got != 50 {
		t.Errorf("bucket2 count2 = %v, want 50", got)
	}
	if bb.PubsInBucket[0] != 50 || bb.PubsInBucket[2] != 50 {
		t.Errorf("bucket populations = %v", bb.PubsInBucket)
	}
}

func TestAverageInstances(t *testing.T) {
	s, sched := twoSnapDataset()
	avg := AverageInstances(s, sched, protocolDim)
	// Snapshot 0: p1 has 1 protocol, p2 has 2 → mean 1.5. VH equal →
	// weighted 1.5 too.
	if avg.Mean[0] != 1.5 {
		t.Errorf("mean = %v, want 1.5", avg.Mean[0])
	}
	if avg.Weighted[0] != 1.5 {
		t.Errorf("weighted = %v, want 1.5", avg.Weighted[0])
	}
	// Snapshot 1: p1 {HLS}, p2 {DASH} → mean 1.
	if avg.Mean[1] != 1 {
		t.Errorf("mean snap1 = %v, want 1", avg.Mean[1])
	}
}

func TestWeightedAverageRespondsToVH(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	// Big publisher with 2 protocols, tiny one with 1.
	s := dataset(
		mk("big", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 3600, 1000, false),
		mk("big", 0, "http://c/b.mpd", "Roku", []string{"A"}, 3600, 1000, false),
		mk("small", 0, "http://c/c.m3u8", "Roku", []string{"A"}, 3600, 1, false),
	)
	avg := AverageInstances(s, sched, protocolDim)
	if avg.Mean[0] != 1.5 {
		t.Errorf("mean = %v", avg.Mean[0])
	}
	if avg.Weighted[0] < 1.99 {
		t.Errorf("weighted = %v, want ~2 (big publisher dominates)", avg.Weighted[0])
	}
}

func TestSupporterShareCDF(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	// p1: 25% of VH via DASH; p2: 100%; p3: no DASH at all.
	s := dataset(
		mk("p1", 0, "http://c/a.mpd", "Roku", []string{"A"}, 3600, 1, false),
		mk("p1", 0, "http://c/b.m3u8", "Roku", []string{"A"}, 3600, 3, false),
		mk("p2", 0, "http://c/c.mpd", "Roku", []string{"A"}, 3600, 1, false),
		mk("p3", 0, "http://c/d.m3u8", "Roku", []string{"A"}, 3600, 1, false),
	)
	cdf := SupporterShareCDF(s.Window(sched[0]), protocolDim, "DASH")
	if len(cdf.X) != 2 {
		t.Fatalf("CDF over supporters should have 2 points, got %v", cdf.X)
	}
	if cdf.X[0] != 25 || cdf.X[1] != 100 {
		t.Fatalf("CDF X = %v, want [25 100]", cdf.X)
	}
	if cdf.P[0] != 0.5 || cdf.P[1] != 1 {
		t.Fatalf("CDF P = %v, want [0.5 1]", cdf.P)
	}
}

func TestDurationCDFs(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	s := dataset(
		mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 1800, 1, false),
		mk("p1", 0, "http://c/b.m3u8", "Roku", []string{"A"}, 5400, 1, false),
		mk("p1", 0, "http://c/c.m3u8", "iPhone", []string{"A"}, 360, 1, false),
	)
	d := DurationCDFs(s, sched[0])
	cdfs := d.CDFs
	set, ok := cdfs["SetTop"]
	if !ok || len(set.X) != 2 {
		t.Fatalf("SetTop CDF = %+v", set)
	}
	if math.Abs(set.X[0]-0.5) > 1e-12 || math.Abs(set.X[1]-1.5) > 1e-12 {
		t.Fatalf("SetTop durations = %v", set.X)
	}
	if _, ok := cdfs["Mobile"]; !ok {
		t.Fatal("Mobile CDF missing")
	}
	// Both set-top views last over 0.2 h, the mobile one does not.
	if want := map[string]float64{"SetTop": 100, "Mobile": 0}; !reflect.DeepEqual(d.LongPct, want) {
		t.Fatalf("LongPct = %v, want %v", d.LongPct, want)
	}
}

func TestSegregation(t *testing.T) {
	sched := simclock.MakeSchedule(14, 2)[:1]
	// pubA: CDN A live+vod, CDN B vod-only → has a VoD-only CDN.
	a1 := mk("pubA", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 60, 1, true)
	a2 := mk("pubA", 0, "http://c/b.m3u8", "Roku", []string{"A"}, 60, 1, false)
	a3 := mk("pubA", 0, "http://c/c.m3u8", "Roku", []string{"B"}, 60, 1, false)
	// pubB: fully segregated: A vod-only, B live-only.
	b1 := mk("pubB", 0, "http://c/d.m3u8", "Roku", []string{"A"}, 60, 1, false)
	b2 := mk("pubB", 0, "http://c/e.m3u8", "Roku", []string{"B"}, 60, 1, true)
	// pubC: single CDN → not eligible.
	c1 := mk("pubC", 0, "http://c/f.m3u8", "Roku", []string{"A"}, 60, 1, true)
	c2 := mk("pubC", 0, "http://c/g.m3u8", "Roku", []string{"A"}, 60, 1, false)
	s := dataset(a1, a2, a3, b1, b2, c1, c2)
	st := Segregation(s.Window(sched[0]))
	if st.EligiblePublishers != 2 {
		t.Fatalf("eligible = %d, want 2", st.EligiblePublishers)
	}
	if st.VoDOnlyFrac != 1.0 { // both pubA and pubB have a VoD-only CDN
		t.Errorf("VoDOnlyFrac = %v, want 1.0", st.VoDOnlyFrac)
	}
	if st.LiveOnlyFrac != 0.5 { // only pubB
		t.Errorf("LiveOnlyFrac = %v, want 0.5", st.LiveOnlyFrac)
	}
	if st.FullySegregated != 1 {
		t.Errorf("FullySegregated = %d, want 1", st.FullySegregated)
	}
}

func TestSegregationEmpty(t *testing.T) {
	st := Segregation(nil)
	if st.EligiblePublishers != 0 || st.VoDOnlyFrac != 0 {
		t.Fatal("empty input should yield zero stats")
	}
}

func TestDeviceDim(t *testing.T) {
	r := mk("p", 0, "http://c/a.m3u8", "Roku", []string{"A"}, 60, 1, false)
	if got := DeviceDim(device.SetTop)(&r); len(got) != 1 || got[0] != "Roku" {
		t.Fatalf("DeviceDim(SetTop) = %v", got)
	}
	if got := DeviceDim(device.Mobile)(&r); got != nil {
		t.Fatalf("DeviceDim(Mobile) on a Roku record = %v, want nil", got)
	}
	bad := r
	bad.Device = "Unknown9000"
	if got := PlatformDim(&bad); got != nil {
		t.Fatal("unknown devices should contribute nothing")
	}
}
