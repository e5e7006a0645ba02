package player

import (
	"testing"

	"vmp/internal/cdnsim"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/netmodel"
	"vmp/internal/packaging"
)

func testManifest(t *testing.T, live bool) *manifest.Manifest {
	t.Helper()
	return ladderManifest(t, live, packaging.GuidelineLadder(6000, 1.8))
}

// ladderManifest is a 1200 s DASH title over the given ladder; a
// one-rung ladder pins every bitrate decision to that rung.
func ladderManifest(t *testing.T, live bool, ladder manifest.Ladder) *manifest.Manifest {
	t.Helper()
	spec := &manifest.Spec{
		VideoID:     "v1",
		DurationSec: 1200,
		ChunkSec:    4,
		AudioKbps:   96,
		Ladder:      ladder,
		Live:        live,
	}
	text, err := manifest.Generate(manifest.DASH, spec, "http://cdn-a/pub")
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse("http://cdn-a/pub/v1.mpd", text)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fastTrace(seed uint64) *netmodel.Trace {
	return netmodel.Profile{MeanKbps: 20000, Sigma: 0.2, Rho: 0.8, RTTms: 15}.NewTrace(dist.NewSource(seed))
}

func slowTrace(seed uint64) *netmodel.Trace {
	return netmodel.Profile{MeanKbps: 700, Sigma: 0.6, Rho: 0.8, RTTms: 60}.NewTrace(dist.NewSource(seed))
}

func TestPlayValidation(t *testing.T) {
	m := testManifest(t, false)
	tr := fastTrace(1)
	cases := []Config{
		{},
		{Manifest: m},
		{Manifest: m, Trace: tr},
		{Manifest: m, Trace: tr, WatchSec: -1},
		{Manifest: &manifest.Manifest{}, Trace: tr, WatchSec: 10},
	}
	for i, cfg := range cases {
		if _, err := Play(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPlayFastPathHighBitrate(t *testing.T) {
	m := testManifest(t, false)
	res, err := Play(Config{Manifest: m, Trace: fastTrace(2), WatchSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlayedSec < 550 || res.PlayedSec > 605 {
		t.Fatalf("PlayedSec = %v, want ~600", res.PlayedSec)
	}
	if res.RebufferRatio() > 0.01 {
		t.Fatalf("fast path rebuffered %.3f", res.RebufferRatio())
	}
	// A 20 Mbps path should sustain an average well above the floor.
	if res.AvgBitrateKbps < 1000 {
		t.Fatalf("AvgBitrate = %v on a 20 Mbps path", res.AvgBitrateKbps)
	}
	if res.ChunksFetched == 0 || res.StartupSec <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestPlaySlowPathLowBitrateAndRebuffering(t *testing.T) {
	m := testManifest(t, false)
	fast, err := Play(Config{Manifest: m, Trace: fastTrace(3), WatchSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Play(Config{Manifest: m, Trace: slowTrace(3), WatchSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgBitrateKbps >= fast.AvgBitrateKbps {
		t.Fatalf("slow path avg bitrate %v >= fast %v", slow.AvgBitrateKbps, fast.AvgBitrateKbps)
	}
	if slow.RebufferSec < 0 {
		t.Fatal("negative rebuffering")
	}
}

func TestPlayVoDEndsAtContent(t *testing.T) {
	m := testManifest(t, false) // 1200s of content
	res, err := Play(Config{Manifest: m, Trace: fastTrace(4), WatchSec: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlayedSec > 1201 {
		t.Fatalf("played %v seconds of a 1200s VoD", res.PlayedSec)
	}
	if res.PlayedSec < 1100 {
		t.Fatalf("played only %v of a 1200s VoD on a fast path", res.PlayedSec)
	}
}

func TestPlayLiveRunsToWatchTime(t *testing.T) {
	m := testManifest(t, true)
	res, err := Play(Config{Manifest: m, Trace: fastTrace(5), WatchSec: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlayedSec < 280 || res.PlayedSec > 305 {
		t.Fatalf("live PlayedSec = %v, want ~300", res.PlayedSec)
	}
}

func TestPlayDeterminism(t *testing.T) {
	m := testManifest(t, false)
	r1, err := Play(Config{Manifest: m, Trace: fastTrace(9), WatchSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Play(Config{Manifest: m, Trace: fastTrace(9), WatchSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlayedSec != r2.PlayedSec || r1.AvgBitrateKbps != r2.AvgBitrateKbps ||
		r1.RebufferSec != r2.RebufferSec || r1.ChunksFetched != r2.ChunksFetched {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestPlayEdgeCacheHits(t *testing.T) {
	m := ladderManifest(t, false, packaging.GuidelineLadder(6000, 1.8)[2:3])
	cdn := cdnsim.NewCDN("A", false, 8<<30)
	cfg := Config{Manifest: m, Trace: fastTrace(11),
		CDN: cdn, ISP: "ISP-X", WatchSec: 200}
	first, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.EdgeHits != 0 {
		t.Fatalf("first viewer got %d edge hits on a cold cache", first.EdgeHits)
	}
	cfg.Trace = fastTrace(12)
	second, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.EdgeHits == 0 {
		t.Fatal("second viewer of same content should hit the edge")
	}
}

func TestPlayColdCacheSlowerThanWarm(t *testing.T) {
	m := ladderManifest(t, false, packaging.GuidelineLadder(6000, 1.8)[3:4])
	cdn := cdnsim.NewCDN("A", false, 8<<30)
	cfg := Config{Manifest: m, Trace: slowTrace(21),
		CDN: cdn, ISP: "ISP-X", WatchSec: 300}
	cold, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = slowTrace(21) // identical network randomness
	warm, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.RebufferSec > cold.RebufferSec {
		t.Fatalf("warm cache rebuffered more (%v) than cold (%v)", warm.RebufferSec, cold.RebufferSec)
	}
}

func TestRebufferRatio(t *testing.T) {
	r := Result{PlayedSec: 90, RebufferSec: 10}
	if got := r.RebufferRatio(); got != 0.1 {
		t.Fatalf("RebufferRatio = %v, want 0.1", got)
	}
	if (Result{}).RebufferRatio() != 0 {
		t.Fatal("empty result ratio should be 0")
	}
}

func TestBufferBasedABR(t *testing.T) {
	ladder := packaging.GuidelineLadder(6000, 1.8)
	if got := chooseRendition(ladder, 0); got != 0 {
		t.Errorf("empty buffer should pick rung 0, got %d", got)
	}
	if got := chooseRendition(ladder, 100); got != len(ladder)-1 {
		t.Errorf("full buffer should pick top rung, got %d", got)
	}
	lo := chooseRendition(ladder, 10)
	hi := chooseRendition(ladder, 25)
	if lo > hi {
		t.Errorf("buffer map not monotone: %d @10s > %d @25s", lo, hi)
	}
}

func TestLadderDifferenceDrivesQoE(t *testing.T) {
	// The §6 mechanism: the same client on the same path gets better
	// average bitrate from a publisher with a taller ladder.
	rich := &manifest.Spec{VideoID: "v", DurationSec: 600, ChunkSec: 4, AudioKbps: 96,
		Ladder: packaging.GuidelineLadder(8000, 1.7)}
	poor := &manifest.Spec{VideoID: "v", DurationSec: 600, ChunkSec: 4, AudioKbps: 96,
		Ladder: packaging.GuidelineLadder(1100, 1.7)}
	parse := func(s *manifest.Spec) *manifest.Manifest {
		text, err := manifest.Generate(manifest.HLS, s, "http://cdn/p")
		if err != nil {
			t.Fatal(err)
		}
		m, err := manifest.Parse("http://cdn/p/v.m3u8", text)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	prof := netmodel.Profile{MeanKbps: 12000, Sigma: 0.3, Rho: 0.8, RTTms: 20}
	richRes, err := Play(Config{Manifest: parse(rich), Trace: prof.NewTrace(dist.NewSource(31)), WatchSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	poorRes, err := Play(Config{Manifest: parse(poor), Trace: prof.NewTrace(dist.NewSource(31)), WatchSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	if richRes.AvgBitrateKbps < 2*poorRes.AvgBitrateKbps {
		t.Fatalf("tall ladder avg %v not >> short ladder avg %v",
			richRes.AvgBitrateKbps, poorRes.AvgBitrateKbps)
	}
}

func TestByteRangePlayback(t *testing.T) {
	spec := &manifest.Spec{
		VideoID:     "br1",
		DurationSec: 800,
		ChunkSec:    4,
		AudioKbps:   96,
		Ladder:      packaging.GuidelineLadder(4000, 1.8)[1:2],
		ByteRange:   true,
	}
	text, err := manifest.Generate(manifest.HLS, spec, "http://cdn-a/pub")
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse("http://cdn-a/pub/br1.m3u8", text)
	if err != nil {
		t.Fatal(err)
	}
	cdn := cdnsim.NewCDN("A", false, 8<<30)
	cfg := Config{Manifest: m, Trace: fastTrace(8), CDN: cdn, ISP: "ISP-X", WatchSec: 200}
	first, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlayedSec < 150 {
		t.Fatalf("byte-range session played %v", first.PlayedSec)
	}
	if first.EdgeHits != 0 {
		t.Fatal("cold cache should not hit")
	}
	// Replay must hit the per-range cache entries.
	cfg.Trace = fastTrace(9)
	second, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.EdgeHits == 0 {
		t.Fatal("byte-range chunks did not cache per range")
	}
}
