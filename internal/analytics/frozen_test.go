package analytics

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"vmp/internal/ecosystem"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// approxEq compares floats with a relative tolerance: legacy code sums
// in map-iteration order, so order-dependent sums may differ in ulps.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func requireSeriesEqual(t *testing.T, name string, got, want *TimeSeries) {
	t.Helper()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: keys = %v, want %v", name, got.Keys, want.Keys)
	}
	for i, k := range want.Keys {
		if got.Keys[i] != k {
			t.Fatalf("%s: keys = %v, want %v", name, got.Keys, want.Keys)
		}
		g, w := got.Series[k], want.Series[k]
		if len(g) != len(w) {
			t.Fatalf("%s[%s]: %d snapshots, want %d", name, k, len(g), len(w))
		}
		for si := range w {
			if !approxEq(g[si], w[si]) {
				t.Errorf("%s[%s][%d] = %v, want %v", name, k, si, g[si], w[si])
			}
		}
	}
}

func TestAnalyzeDimMatchesLegacy(t *testing.T) {
	ds, sched := twoSnapDataset()
	cases := []struct {
		name string
		col  *telemetry.DimColumn
		dim  Dim
	}{
		{"protocol", ds.ProtocolCol(), protocolDim},
		{"platform", ds.PlatformCol(), PlatformDim},
		{"cdn", ds.CDNCol(), CDNDim},
	}
	for _, c := range cases {
		b := AnalyzeDim(ds, sched, c.col)
		requireSeriesEqual(t, c.name+"/publishers", b.Publishers, ShareOfPublishers(ds, sched, c.dim))
		requireSeriesEqual(t, c.name+"/viewhours", b.ViewHours, ShareOfViewHours(ds, sched, c.dim, nil))
		requireSeriesEqual(t, c.name+"/views", b.Views, ShareOfViews(ds, sched, c.dim, nil))
		legacy := AverageInstances(ds, sched, c.dim)
		if len(b.Averages.Snapshots) != len(legacy.Snapshots) {
			t.Fatalf("%s/averages: %d snapshots, want %d", c.name, len(b.Averages.Snapshots), len(legacy.Snapshots))
		}
		for i := range legacy.Snapshots {
			if b.Averages.Snapshots[i] != legacy.Snapshots[i] {
				t.Errorf("%s/averages label %d = %q, want %q", c.name, i, b.Averages.Snapshots[i], legacy.Snapshots[i])
			}
			if !approxEq(b.Averages.Mean[i], legacy.Mean[i]) {
				t.Errorf("%s/averages mean %d = %v, want %v", c.name, i, b.Averages.Mean[i], legacy.Mean[i])
			}
			if !approxEq(b.Averages.Weighted[i], legacy.Weighted[i]) {
				t.Errorf("%s/averages weighted %d = %v, want %v", c.name, i, b.Averages.Weighted[i], legacy.Weighted[i])
			}
		}
	}
}

func TestShareOfDatasetExclusion(t *testing.T) {
	ds, sched := twoSnapDataset()
	exclude := make([]bool, ds.NumPublishers())
	if id, ok := ds.PublisherIDOf("p2"); ok {
		exclude[id] = true
	} else {
		t.Fatal("p2 missing from dataset")
	}
	got := ShareOfViewHoursDataset(ds, sched, ds.ProtocolCol(), exclude)
	want := ShareOfViewHours(ds, sched, protocolDim, map[string]bool{"p2": true})
	requireSeriesEqual(t, "excl-viewhours", got, want)

	wantV := ShareOfViews(ds, sched, protocolDim, map[string]bool{"p2": true})
	for si, snap := range sched {
		lo, hi := ds.WindowBounds(snap)
		gotV := ShareOverRows(ds, ds.ProtocolCol(), lo, hi, exclude, true)
		if len(gotV) == 0 {
			t.Fatalf("excl-views: nothing in %s", snap.Label())
		}
		for _, sh := range gotV {
			if !approxEq(sh.Pct, wantV.Series[sh.Key][si]) {
				t.Errorf("excl-views[%s][%d] = %v, want %v", sh.Key, si, sh.Pct, wantV.Series[sh.Key][si])
			}
		}
	}
}

func TestInstancesDatasetMatchesLegacy(t *testing.T) {
	ds, sched := twoSnapDataset()
	for _, snap := range sched {
		recs := window(ds, ds.All(), snap)
		got := InstancesPerPublisherDataset(ds, snap, ds.CDNCol())
		want := InstancesPerPublisher(recs, CDNDim)
		if len(got.Counts) != len(want.Counts) {
			t.Fatalf("%s: counts %v, want %v", snap.Label(), got.Counts, want.Counts)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] || !approxEq(got.PubPct[i], want.PubPct[i]) || !approxEq(got.VHPct[i], want.VHPct[i]) {
				t.Errorf("%s histogram row %d = (%d %v %v), want (%d %v %v)", snap.Label(), i,
					got.Counts[i], got.PubPct[i], got.VHPct[i], want.Counts[i], want.PubPct[i], want.VHPct[i])
			}
		}

		gotB := InstancesByBucketDataset(ds, snap, ds.CDNCol(), snap.Days, 7)
		wantB := InstancesByBucket(recs, CDNDim, snap.Days, 7)
		if len(gotB.Buckets) != len(wantB.Buckets) {
			t.Fatalf("%s: bucket count mismatch", snap.Label())
		}
		for b := range wantB.Buckets {
			if !approxEq(gotB.PubsInBucket[b], wantB.PubsInBucket[b]) {
				t.Errorf("%s PubsInBucket[%d] = %v, want %v", snap.Label(), b, gotB.PubsInBucket[b], wantB.PubsInBucket[b])
			}
			if len(gotB.Buckets[b]) != len(wantB.Buckets[b]) {
				t.Errorf("%s bucket %d cells = %v, want %v", snap.Label(), b, gotB.Buckets[b], wantB.Buckets[b])
				continue
			}
			for n, v := range wantB.Buckets[b] {
				if !approxEq(gotB.Buckets[b][n], v) {
					t.Errorf("%s bucket %d count %d = %v, want %v", snap.Label(), b, n, gotB.Buckets[b][n], v)
				}
			}
		}
	}
}

func TestTopPublisherMaskMatchesLegacy(t *testing.T) {
	ds, sched := twoSnapDataset()
	for _, snap := range sched {
		for n := 0; n <= 3; n++ {
			want := TopPublishersByViewHours(window(ds, ds.All(), snap), n)
			mask := TopPublisherMask(ds, snap, n)
			got := map[string]bool{}
			for id, in := range mask {
				if in {
					got[ds.PublisherName(int32(id))] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s top-%d = %v, want %v", snap.Label(), n, got, want)
			}
			for p := range want {
				if !got[p] {
					t.Errorf("%s top-%d missing %s", snap.Label(), n, p)
				}
			}
		}
	}
}

// TestRankPublishersTieBreakByName: publishers with equal view-hours
// rank by name, not by the order their first records arrive in. The
// six tied publishers' records run p6 first, p1 last, so a ranking by
// view-hours alone puts them in that order.
func TestRankPublishersTieBreakByName(t *testing.T) {
	var recs []telemetry.ViewRecord
	for k, pub := range []string{"p6", "p5", "p4", "p3", "p2", "p1"} {
		r := mk(pub, 0, "http://c/a.m3u8", "Roku", []string{"A"}, 3600, 1, false)
		r.Timestamp = r.Timestamp.Add(time.Duration(k) * time.Minute)
		recs = append(recs, r)
	}
	ds := dataset(recs...)
	rows, _ := RankPublishers(ds, 0, ds.Len())
	var got []string
	for _, r := range rows {
		got = append(got, r.Publisher)
	}
	if want := []string{"p1", "p2", "p3", "p4", "p5", "p6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a six-way tie ranks %v, want %v", got, want)
	}
	snap := simclock.MakeSchedule(14, 2)[0]
	mask := TopPublisherMask(ds, snap, 3)
	for _, pub := range []string{"p1", "p2", "p3"} {
		if id, _ := ds.PublisherIDOf(pub); !mask[id] {
			t.Errorf("top 3 of the tie leaves out %s", pub)
		}
	}
}

func TestMacroDatasetMatchesLegacy(t *testing.T) {
	ds, sched := twoSnapDataset()
	for _, snap := range sched {
		got := MacroDataset(ds, snap, snap.Days)
		want := Macro(window(ds, ds.All(), snap), snap.Days)
		if got.Publishers != want.Publishers || got.SampledViews != want.SampledViews ||
			got.DistinctGeos != want.DistinctGeos ||
			!approxEq(got.ViewsRepresented, want.ViewsRepresented) ||
			!approxEq(got.ViewHours, want.ViewHours) ||
			!approxEq(got.DailyViewHours, want.DailyViewHours) {
			t.Errorf("%s: MacroDataset = %+v, want %+v", snap.Label(), got, want)
		}
	}
}

func TestAnalyzeDimWeightedRecords(t *testing.T) {
	// Weighted + multi-CDN records through the fused pass vs legacy.
	sched := simclock.MakeSchedule(14, 2)[:1]
	a := mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A", "B", "C"}, 1800, 7, false)
	b := mk("p2", 1, "http://c/b.mpd", "iPhone", []string{"B"}, 5400, 3, false)
	c := mk("p3", 1, "http://c/c.m3u8", "UnknownDevice", nil, 3600, 0, false)
	ds := dataset(a, b, c)
	bundle := AnalyzeDim(ds, sched, ds.CDNCol())
	requireSeriesEqual(t, "weighted/cdn/viewhours", bundle.ViewHours, ShareOfViewHours(ds, sched, CDNDim, nil))
	requireSeriesEqual(t, "weighted/cdn/publishers", bundle.Publishers, ShareOfPublishers(ds, sched, CDNDim))
	pb := AnalyzeDim(ds, sched, ds.PlatformCol())
	requireSeriesEqual(t, "weighted/platform/views", pb.Views, ShareOfViews(ds, sched, PlatformDim, nil))
}

// TestSupporterShareAndCrossDatasetMatchReference holds Fig 4 and the
// cross-tab, ported to the Dataset's columns, to their row-at-a-time
// references bit for bit: both sum in record order. Multi-CDN views,
// an unknown device and a value no record has included.
func TestSupporterShareAndCrossDatasetMatchReference(t *testing.T) {
	two, sched := twoSnapDataset()
	weighted := dataset(
		mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A", "B", "C"}, 1800, 7, false),
		mk("p1", 0, "http://c/a.mpd", "iPhone", []string{"A"}, 900, 2, false),
		mk("p2", 1, "http://c/b.mpd", "iPhone", []string{"B"}, 5400, 3, false),
		mk("p3", 1, "http://c/c.m3u8", "UnknownDevice", nil, 3600, 0, false),
	)
	for _, ds := range []*telemetry.Dataset{two, weighted} {
		for _, snap := range sched {
			recs := window(ds, ds.All(), snap)
			for _, key := range []string{"DASH", "HLS", "RTMP"} {
				got := SupporterShareCDFDataset(ds, snap, ds.ProtocolCol(), key)
				if want := SupporterShareCDF(recs, protocolDim, key); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s supporters: %+v, want %+v", snap.Label(), key, got, want)
				}
			}
			for _, key := range []string{"A", "B"} {
				got := SupporterShareCDFDataset(ds, snap, ds.CDNCol(), key)
				if want := SupporterShareCDF(recs, CDNDim, key); !reflect.DeepEqual(got, want) {
					t.Errorf("%s CDN %s supporters: %+v, want %+v", snap.Label(), key, got, want)
				}
			}
			got := CrossDataset(ds, snap, ds.PlatformCol(), ds.ProtocolCol())
			if want := Cross(recs, PlatformDim, protocolDim); !reflect.DeepEqual(got, want) {
				t.Errorf("%s platform x protocol: %+v, want %+v", snap.Label(), got, want)
			}
			got = CrossDataset(ds, snap, ds.CDNCol(), ds.ProtocolCol())
			if want := Cross(recs, CDNDim, protocolDim); !reflect.DeepEqual(got, want) {
				t.Errorf("%s CDN x protocol: %+v, want %+v", snap.Label(), got, want)
			}
		}
	}
}

// TestSegregationDatasetMatchesReference holds §4.3's column kernel to
// the row-at-a-time Segregation on generated records — live and VoD
// views, multi-CDN views — at two seeds and two strides, over the
// latest snapshot as the study reads it.
func TestSegregationDatasetMatchesReference(t *testing.T) {
	for _, seed := range []uint64{ecosystem.DefaultSeed, 7} {
		for _, stride := range []int{24, 59} {
			t.Run(fmt.Sprintf("seed%d/stride%d", seed, stride), func(t *testing.T) {
				e := ecosystem.New(ecosystem.Config{Seed: seed, SnapshotStride: stride})
				ds := telemetry.NewDataset(e.GenerateStore().All())
				snap := e.Schedule.Latest()
				got := SegregationDataset(ds, snap)
				want := Segregation(window(ds, ds.All(), snap))
				if want.EligiblePublishers == 0 {
					t.Fatal("no eligible publishers: the records do not exercise the kernel")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("SegregationDataset = %+v, want %+v", got, want)
				}
			})
		}
	}
}
