package manifest

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func testSpec() *Spec {
	return &Spec{
		VideoID:     "v123",
		DurationSec: 634.5,
		ChunkSec:    4,
		AudioKbps:   96,
		Ladder: Ladder{
			{BitrateKbps: 400, Width: 640, Height: 360, Codec: "avc1.42c01e"},
			{BitrateKbps: 1200, Width: 1280, Height: 720, Codec: "avc1.4d401f"},
			{BitrateKbps: 3500, Width: 1920, Height: 1080, Codec: "avc1.640028"},
		},
	}
}

// TestInferProtocolTable1 checks every row of Table 1, including the
// sample URLs printed in the paper.
func TestInferProtocolTable1(t *testing.T) {
	cases := []struct {
		url  string
		want Protocol
	}{
		{"http://x.akamaihd.net/master.m3u8", HLS},
		{"http://x.example.com/list.m3u", HLS},
		{"http://x.llwnd.net//Z53TiGRzq.mpd", DASH},
		{"http://x.level3.net/56.ism/manifest", Smooth},
		{"http://x.example.net/56.isml/manifest", Smooth},
		{"http://x.example.net/56.ism", Smooth},
		{"http://x.aws.com/cache/hds.f4m", HDS},
		{"rtmp://live.example.com/stream1", RTMP},
		{"rtmps://live.example.com/stream1", RTMP},
		{"http://x.example.com/video.mp4", Progressive},
		{"http://x.example.com/video.flv", Progressive},
		{"http://x.example.com/page.html", Unknown},
		{"", Unknown},
		{"HTTP://X.EXAMPLE.COM/MASTER.M3U8", HLS}, // case-insensitive
		{"http://x.example.com/a.mpd?token=abc", DASH},
		{"http://x.example.com/a.m3u8#frag", HLS},
	}
	for _, c := range cases {
		if got := InferProtocol(c.url); got != c.want {
			t.Errorf("InferProtocol(%q) = %v, want %v", c.url, got, c.want)
		}
	}
}

func TestProtocolStringsAndExtensions(t *testing.T) {
	for p, want := range map[Protocol]string{
		HLS: ".m3u8", DASH: ".mpd", Smooth: ".ism", HDS: ".f4m",
		RTMP: "", Progressive: "", Unknown: "",
	} {
		if got := p.ManifestExtension(); got != want {
			t.Errorf("%v.ManifestExtension() = %q, want %q", p, got, want)
		}
	}
	names := map[string]bool{}
	for _, p := range []Protocol{HLS, DASH, Smooth, HDS, RTMP, Progressive, Unknown} {
		if names[p.String()] {
			t.Errorf("duplicate protocol name %q", p.String())
		}
		names[p.String()] = true
	}
}

func TestManifestURLInferLoop(t *testing.T) {
	// The URL minted for each protocol must infer back to the same
	// protocol — the invariant that makes the analytics pipeline's
	// protocol attribution work.
	for _, p := range []Protocol{HLS, DASH, Smooth, HDS, RTMP, Progressive} {
		u := ManifestURL(p, "http://cdn-a.example/pub1", "v9")
		if got := InferProtocol(u); got != p {
			t.Errorf("InferProtocol(ManifestURL(%v)) = %v (url %q)", p, got, u)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*Spec{
		{ChunkSec: 4, DurationSec: 10, Ladder: Ladder{{BitrateKbps: 1}}},               // no ID
		{VideoID: "v", DurationSec: 10, Ladder: Ladder{{BitrateKbps: 1}}},              // no chunk
		{VideoID: "v", ChunkSec: 4, DurationSec: 10},                                   // no ladder
		{VideoID: "v", ChunkSec: 4, Ladder: Ladder{{BitrateKbps: 1}}},                  // no duration, VoD
		{VideoID: "v", ChunkSec: 4, DurationSec: 10, Ladder: Ladder{{BitrateKbps: 0}}}, // zero bitrate
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	live := &Spec{VideoID: "v", ChunkSec: 4, Live: true, Ladder: Ladder{{BitrateKbps: 100}}}
	if err := live.Validate(); err != nil {
		t.Errorf("live spec without duration rejected: %v", err)
	}
}

func TestChunkCount(t *testing.T) {
	s := testSpec() // 634.5s / 4s = 158.6 -> 159 chunks
	if got := s.ChunkCount(); got != 159 {
		t.Fatalf("ChunkCount = %d, want 159", got)
	}
	s.DurationSec = 8
	if got := s.ChunkCount(); got != 2 {
		t.Fatalf("ChunkCount(8s/4s) = %d, want 2", got)
	}
	s.Live = true
	if got := s.ChunkCount(); got != liveWindowChunks {
		t.Fatalf("live ChunkCount = %d, want %d", got, liveWindowChunks)
	}
}

func TestLadderAccessors(t *testing.T) {
	l := testSpec().Ladder
	if got := l.Bitrates(); len(got) != 3 || got[0] != 400 || got[2] != 3500 {
		t.Fatalf("Bitrates = %v", got)
	}
	if l.Max() != 3500 || l.Min() != 400 {
		t.Fatalf("Max/Min = %d/%d", l.Max(), l.Min())
	}
	var empty Ladder
	if empty.Max() != 0 || empty.Min() != 0 {
		t.Fatal("empty ladder Max/Min should be 0")
	}
}

// roundTrip generates and parses a manifest, asserting the adaptation
// metadata survives.
func roundTrip(t *testing.T, p Protocol, spec *Spec) *Manifest {
	t.Helper()
	base := "http://cdn-a.example/pub1"
	text, err := Generate(p, spec, base)
	if err != nil {
		t.Fatalf("Generate(%v): %v", p, err)
	}
	url := ManifestURL(p, base, spec.VideoID)
	m, err := Parse(url, text)
	if err != nil {
		t.Fatalf("Parse(%v): %v\nmanifest:\n%s", p, err, text)
	}
	if m.Protocol != p {
		t.Fatalf("parsed protocol %v, want %v", m.Protocol, p)
	}
	if len(m.Ladder) != len(spec.Ladder) {
		t.Fatalf("%v: parsed %d renditions, want %d", p, len(m.Ladder), len(spec.Ladder))
	}
	for i, r := range m.Ladder {
		if r.BitrateKbps != spec.Ladder[i].BitrateKbps {
			t.Errorf("%v rendition %d bitrate %d, want %d", p, i, r.BitrateKbps, spec.Ladder[i].BitrateKbps)
		}
	}
	if m.ChunkSec != spec.ChunkSec {
		t.Errorf("%v ChunkSec %v, want %v", p, m.ChunkSec, spec.ChunkSec)
	}
	if m.ChunkCount() != spec.ChunkCount() {
		t.Errorf("%v ChunkCount %d, want %d", p, m.ChunkCount(), spec.ChunkCount())
	}
	if m.Live != spec.Live {
		t.Errorf("%v Live %v, want %v", p, m.Live, spec.Live)
	}
	// Every chunk URL must be addressable and distinct per chunk.
	last := ""
	for c := 0; c < m.ChunkCount(); c += m.ChunkCount()/3 + 1 {
		u := m.ChunkURL(len(m.Ladder)-1, c)
		if u == "" || u == last {
			t.Fatalf("%v: degenerate chunk URL %q", p, u)
		}
		last = u
	}
	return m
}

func TestRoundTripAllProtocolsVoD(t *testing.T) {
	for _, p := range HTTPProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) { roundTrip(t, p, testSpec()) })
	}
}

func TestRoundTripAllProtocolsLive(t *testing.T) {
	for _, p := range HTTPProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			spec := testSpec()
			spec.Live = true
			roundTrip(t, p, spec)
		})
	}
}

func TestHLSMasterContent(t *testing.T) {
	text, err := Generate(HLS, testSpec(), "http://cdn-a.example/pub1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#EXTM3U",
		"#EXT-X-STREAM-INF:BANDWIDTH=496000,RESOLUTION=640x360",
		"#EXT-X-STREAM-INF:BANDWIDTH=3596000,RESOLUTION=1920x1080",
		"http://cdn-a.example/pub1/v123/r0.m3u8",
		`CODECS="avc1.4d401f"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("HLS master missing %q:\n%s", want, text)
		}
	}
}

func TestParseHLSMasterErrors(t *testing.T) {
	cases := map[string]string{
		"not a playlist":  "hello",
		"no variants":     "#EXTM3U\n",
		"uri without inf": "#EXTM3U\nhttp://x/v/r0.m3u8\n",
		"bad bandwidth":   "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=abc\nhttp://x/r0.m3u8\n",
		"zero bandwidth":  "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=0\nhttp://x/r0.m3u8\n",
	}
	for name, text := range cases {
		if _, err := parseHLSMaster(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseMPDErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":   "nope",
		"no period": `<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static"></MPD>`,
		"no reps":   `<MPD type="static"><Period id="p0"></Period></MPD>`,
		"no tpl": `<MPD type="static" mediaPresentationDuration="PT10S"><Period id="p0">` +
			`<AdaptationSet contentType="video"><Representation id="r0" bandwidth="1000"/></AdaptationSet></Period></MPD>`,
	}
	for name, text := range cases {
		if _, err := parseMPD(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseISODuration(t *testing.T) {
	good := map[string]float64{
		"PT634.500S": 634.5,
		"PT1M30S":    90,
		"PT2H":       7200,
		"PT1H1M1S":   3661,
	}
	for in, want := range good {
		got, err := parseISODuration(in)
		if err != nil || got != want {
			t.Errorf("parseISODuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "10S", "PT", "PTxS", "PT5", "PT0S"} {
		if _, err := parseISODuration(in); err == nil {
			t.Errorf("parseISODuration(%q) accepted", in)
		}
	}
}

func TestSmoothChunkURLs(t *testing.T) {
	m := roundTrip(t, Smooth, testSpec())
	u0 := m.ChunkURL(2, 0)
	u1 := m.ChunkURL(2, 1)
	if !strings.Contains(u0, "QualityLevels(3500000)") {
		t.Errorf("Smooth chunk URL missing bitrate: %q", u0)
	}
	if !strings.Contains(u0, "Fragments(video=0)") {
		t.Errorf("first fragment should start at 0: %q", u0)
	}
	if !strings.Contains(u1, fmt.Sprint(int64(4*smoothTimescale))) {
		t.Errorf("second fragment should start at one chunk duration: %q", u1)
	}
}

func TestHDSChunkURLs(t *testing.T) {
	m := roundTrip(t, HDS, testSpec())
	u := m.ChunkURL(0, 0)
	if !strings.HasSuffix(u, "Seg1-Frag1") {
		t.Errorf("HDS fragments are 1-indexed, got %q", u)
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	bad := &Spec{}
	for _, p := range HTTPProtocols {
		if _, err := Generate(p, bad, "http://x"); err == nil {
			t.Errorf("%v accepted invalid spec", p)
		}
	}
	if _, err := Generate(RTMP, testSpec(), "http://x"); err == nil {
		t.Error("RTMP should have no manifest format")
	}
}

func TestParseUnknownURL(t *testing.T) {
	if _, err := Parse("http://x/thing.html", "whatever"); err == nil {
		t.Fatal("Parse should fail for un-inferable URLs")
	}
}

func TestChunkURLPanics(t *testing.T) {
	m := roundTrip(t, DASH, testSpec())
	for _, fn := range []func(){
		func() { m.ChunkURL(-1, 0) },
		func() { m.ChunkURL(0, -1) },
		func() { m.ChunkURL(99, 0) },
		func() { m.ChunkURL(0, 1_000_000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range ChunkURL should panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for any well-formed spec, DASH round-trips preserve ladder
// size and chunk count.
func TestRoundTripProperty(t *testing.T) {
	f := func(nLadder uint8, chunkTenths uint8, durTenths uint16, audio uint8) bool {
		n := int(nLadder%14) + 1
		spec := &Spec{
			VideoID:     "vq",
			ChunkSec:    float64(chunkTenths%40+10) / 10, // 1.0..4.9s
			DurationSec: float64(durTenths%12000+100) / 10,
			AudioKbps:   int(audio%128) + 32,
		}
		for i := 0; i < n; i++ {
			spec.Ladder = append(spec.Ladder, Rendition{BitrateKbps: 100 * (i + 1)})
		}
		for _, p := range HTTPProtocols {
			text, err := Generate(p, spec, "http://cdn/pub")
			if err != nil {
				return false
			}
			m, err := Parse(ManifestURL(p, "http://cdn/pub", spec.VideoID), text)
			if err != nil {
				return false
			}
			if len(m.Ladder) != n || m.ChunkCount() != spec.ChunkCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
