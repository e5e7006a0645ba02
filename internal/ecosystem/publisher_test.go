package ecosystem

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

func giantAndSmall(t *testing.T) (giant, small *Publisher) {
	t.Helper()
	e := testEco(t)
	for _, p := range e.Publishers {
		if p.Bucket == NumBuckets-1 && giant == nil {
			giant = p
		}
		if p.Bucket == 0 && small == nil {
			small = p
		}
	}
	if giant == nil || small == nil {
		t.Fatal("population missing extremes")
	}
	return giant, small
}

func TestDailyViewHoursGrowth(t *testing.T) {
	p := &Publisher{DailyVH: 1000, Growth: 0.2}
	start := p.DailyViewHoursAt(simclock.StudyStart)
	end := p.DailyViewHoursAt(simclock.StudyEnd)
	if end <= start {
		t.Fatalf("positive growth should raise view-hours: %v -> %v", start, end)
	}
	mid := p.DailyViewHoursAt(simclock.StudyStart.Add(simclock.StudyEnd.Sub(simclock.StudyStart) / 2))
	if mid < 995 || mid > 1005 {
		t.Fatalf("midpoint VH = %v, want the configured 1000", mid)
	}
}

// TestVideoIDFormat pins the IDs the generator's tables build — a
// title's VideoID, a syndicator's own ID for it and the owner's
// ContentID it carries — to the "%s-v%04d" and "%s-s%04d" forms they
// replaced, and holds a second draw of a rank to the first one's string.
func TestVideoIDFormat(t *testing.T) {
	var strs pubStrings
	strs.reset(&Publisher{ID: "pub007", CatalogSize: 123457, IsSyndicator: true, CarriesFrom: []string{"pub001", "pub002"}})
	if got := strs.videoID(42); got != "pub007-v0042" {
		t.Fatalf("VideoID = %q", got)
	}
	for _, rank := range []int{0, 7, 42, 999, 9999, 10000, 123456} {
		for _, c := range []struct{ got, want string }{
			{strs.videoID(rank), fmt.Sprintf("pub007-v%04d", rank)},
			{strs.syndicatedID(rank), fmt.Sprintf("pub007-s%04d", rank)},
			{strs.carriedID(1, rank%carriedTitles), fmt.Sprintf("pub002-v%04d", rank%carriedTitles)},
		} {
			if c.got != c.want {
				t.Errorf("rank %d: ID %q, fmt gives %q", rank, c.got, c.want)
			}
		}
		if a, b := strs.videoID(rank), strs.videoID(rank); unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("rank %d: a second draw built its VideoID again", rank)
		}
	}
}

func TestGiantCDNWeightShiftsFromA(t *testing.T) {
	giant, _ := giantAndSmall(t)
	weightOf := func(t0 time.Time, name string) float64 {
		for _, a := range giant.CDNsAt(t0) {
			if a.Name == name {
				return a.Weight
			}
		}
		return 0
	}
	aStart := weightOf(simclock.StudyStart, "A")
	aEnd := weightOf(simclock.StudyEnd, "A")
	bStart := weightOf(simclock.StudyStart, "B")
	bEnd := weightOf(simclock.StudyEnd, "B")
	if aStart == 0 {
		t.Skip("this giant does not use CDN A")
	}
	if aEnd >= aStart {
		t.Fatalf("giant's CDN A weight should decline: %v -> %v", aStart, aEnd)
	}
	if bStart > 0 && bEnd <= bStart {
		t.Fatalf("giant's CDN B weight should grow: %v -> %v", bStart, bEnd)
	}
}

func TestProtocolWeightsDriverRamp(t *testing.T) {
	giant, small := giantAndSmall(t)
	if !giant.DASHDriver {
		t.Fatal("giants should be DASH drivers")
	}
	latest := simclock.StudyEnd
	wGiant := giant.protocolWeightAt(manifest.DASH, latest)
	if wGiant <= giant.protocolWeightAt(manifest.HLS, latest) {
		t.Fatalf("driver DASH weight %v should exceed HLS weight by the end", wGiant)
	}
	if small.SupportsProtocolAt(manifest.DASH, latest) {
		if w := small.protocolWeightAt(manifest.DASH, latest); w > 0.5 {
			t.Fatalf("non-driver DASH weight = %v, want small", w)
		}
	}
	// Unsupported protocols weigh zero.
	if w := small.protocolWeightAt(manifest.DASH, simclock.StudyStart.Add(-time.Hour)); small.dashFrom > 0 && w != 0 {
		t.Fatalf("pre-adoption weight = %v, want 0", w)
	}
}

func TestPlatformWeightsGiantVsSmall(t *testing.T) {
	giant, small := giantAndSmall(t)
	latest := simclock.StudyEnd
	gSetTop := giant.platformWeightAt(device.SetTop, latest)
	gMobile := giant.platformWeightAt(device.Mobile, latest)
	if gSetTop <= gMobile {
		t.Fatalf("giants are living-room-led: settop %v vs mobile %v", gSetTop, gMobile)
	}
	if small.SupportsPlatformAt(device.Mobile, latest) && small.SupportsPlatformAt(device.SetTop, latest) {
		sSetTop := small.platformWeightAt(device.SetTop, latest)
		sMobile := small.platformWeightAt(device.Mobile, latest)
		if sMobile <= sSetTop {
			t.Fatalf("small publishers are mobile-led: mobile %v vs settop %v", sMobile, sSetTop)
		}
	}
	// Unsupported platforms weigh zero.
	if w := small.platformWeightAt(device.Console, latest); !small.SupportsPlatformAt(device.Console, latest) && w != 0 {
		t.Fatalf("unsupported platform weight = %v", w)
	}
}

func TestProtocolSupportMonotoneExceptHDS(t *testing.T) {
	e := testEco(t)
	times := []time.Time{
		simclock.StudyStart,
		simclock.StudyStart.AddDate(0, 9, 0),
		simclock.StudyStart.AddDate(0, 18, 0),
		simclock.StudyEnd,
	}
	for _, p := range e.Publishers {
		prevDASH := false
		for _, tm := range times {
			cur := p.SupportsProtocolAt(manifest.DASH, tm)
			if prevDASH && !cur {
				t.Fatalf("%s un-adopted DASH", p.ID)
			}
			prevDASH = cur
		}
	}
}

func TestCDNNamesSorted(t *testing.T) {
	e := testEco(t)
	for _, p := range e.Publishers {
		names := p.CDNNamesAt(simclock.StudyEnd)
		for i := 1; i < len(names); i++ {
			if names[i] < names[i-1] {
				t.Fatalf("%s CDN names unsorted: %v", p.ID, names)
			}
		}
	}
}

func TestInventoryDeterminism(t *testing.T) {
	a := New(Config{SnapshotStride: 30})
	b := New(Config{SnapshotStride: 30})
	ia := a.InventoryAt(a.Schedule.Latest().Start)
	ib := b.InventoryAt(b.Schedule.Latest().Start)
	if len(ia) != len(ib) {
		t.Fatal("inventory sizes differ")
	}
	for i := range ia {
		if ia[i].Publisher != ib[i].Publisher ||
			len(ia[i].SDKVersions) != len(ib[i].SDKVersions) ||
			len(ia[i].DeviceModels) != len(ib[i].DeviceModels) {
			t.Fatalf("inventory %d differs between identical runs", i)
		}
	}
}
