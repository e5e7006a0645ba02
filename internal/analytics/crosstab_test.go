package analytics

import (
	"math"
	"testing"

	"vmp/internal/device"
	"vmp/internal/ecosystem"
	"vmp/internal/simclock"
)

// oneSnap is the one-snapshot schedule the hand-built tables fall in.
var oneSnap = simclock.MakeSchedule(14, 2)[0]

func TestCrossTabBasics(t *testing.T) {
	ds := dataset(
		mk("p1", 0, "http://c/a.m3u8", "iPhone", []string{"A"}, 3600, 1, false),
		mk("p1", 0, "http://c/b.mpd", "Roku", []string{"A"}, 3600, 1, false),
		mk("p1", 0, "http://c/c.m3u8", "Roku", []string{"A"}, 3600, 2, false),
	)
	ct := CrossDataset(ds, oneSnap, ds.PlatformCol(), ds.ProtocolCol())
	if ct.Total != 4 {
		t.Fatalf("total = %v, want 4 view-hours", ct.Total)
	}
	if got := ct.At("Mobile", "HLS"); got != 1 {
		t.Errorf("Mobile×HLS = %v, want 1", got)
	}
	if got := ct.At("SetTop", "DASH"); got != 1 {
		t.Errorf("SetTop×DASH = %v, want 1", got)
	}
	if got := ct.RowShare("SetTop", "HLS"); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("SetTop HLS row share = %v, want 2/3", got)
	}
	if ct.At("Console", "HLS") != 0 || ct.RowShare("Console", "HLS") != 0 {
		t.Error("missing cells should read 0")
	}
}

// TestCrossTabSharesFoldInKeyOrder pins the order RowShare folds its
// total in. Float addition does not associate: these cells sum to 3 in
// key order (1e16 absorbs the 1) and to 4 or 5 in most other orders, so
// a total folded in map iteration order moves from call to call. The
// share is asked 200 times and compared bit for bit with the key-order
// fold, so a random order cannot pass by luck.
func TestCrossTabSharesFoldInKeyOrder(t *testing.T) {
	cells := map[string]float64{"d": 3, "c": -1e16, "b": 1, "a": 1e16}
	ct := &CrossTab{ViewHours: map[string]map[string]float64{"r": cells}}
	total := 0.0
	for _, k := range []string{"a", "b", "c", "d"} {
		total += cells[k]
	}
	want := math.Float64bits(cells["d"] / total)
	for i := 0; i < 200; i++ {
		if got := ct.RowShare("r", "d"); math.Float64bits(got) != want {
			t.Fatalf("call %d: RowShare = %v, want %v (the key-order fold)", i, got, math.Float64frombits(want))
		}
	}
}

func TestCrossTabMultiValueSplit(t *testing.T) {
	ds := dataset(mk("p1", 0, "http://c/a.m3u8", "Roku", []string{"A", "B"}, 3600, 1, false))
	ct := CrossDataset(ds, oneSnap, ds.CDNCol(), ds.ProtocolCol())
	if got := ct.At("A", "HLS"); got != 0.5 {
		t.Fatalf("A×HLS = %v, want 0.5 (split across 2 CDNs)", got)
	}
	if ct.Total != 1 {
		t.Fatalf("total = %v, want 1", ct.Total)
	}
}

// TestCrossTabAppleHLSOnly verifies, on real generated records, the
// §2 constraint end to end: every view-hour on an Apple device was
// served over HLS.
func TestCrossTabAppleHLSOnly(t *testing.T) {
	e := ecosystem.New(ecosystem.Config{SnapshotStride: 59})
	snap := e.Schedule.Latest()
	ds := dataset(e.GenerateSnapshot(snap)...)
	cross := func(pl device.Platform) *CrossTab {
		return CrossDataset(ds, snap, ds.DeviceCol(pl.String()), ds.ProtocolCol())
	}
	for _, c := range []struct {
		pl   device.Platform
		devs []string
	}{{device.Mobile, []string{"iPhone", "iPad"}}, {device.SetTop, []string{"AppleTV"}}} {
		ct := cross(c.pl)
		for _, dev := range c.devs {
			if share := ct.RowShare(dev, "HLS"); share != 1 {
				t.Errorf("%s HLS share = %v, want 1.0 (Apple devices are HLS-only)", dev, share)
			}
		}
	}
	// Silverlight is SmoothStreaming-only.
	if share := cross(device.Browser).RowShare("Silverlight", "SmoothStreaming"); share != 1 {
		t.Errorf("Silverlight Smooth share = %v, want 1.0", share)
	}
}

func TestCrossTabEmpty(t *testing.T) {
	ds := dataset()
	ct := CrossDataset(ds, oneSnap, ds.PlatformCol(), ds.ProtocolCol())
	if ct.Total != 0 || len(ct.RowKeys) != 0 {
		t.Fatal("empty input should yield an empty table")
	}
}
