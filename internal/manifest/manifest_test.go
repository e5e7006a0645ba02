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

// TestManifestURLMatchesFmtForms pins the concatenating ManifestURL to
// the fmt.Sprintf forms it replaced, for every protocol, including bases
// with a trailing slash and an https scheme.
func TestManifestURLMatchesFmtForms(t *testing.T) {
	old := func(p Protocol, baseURL, videoID string) string {
		base := strings.TrimSuffix(baseURL, "/")
		switch p {
		case Smooth:
			return fmt.Sprintf("%s/%s.ism/manifest", base, videoID)
		case RTMP:
			host := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
			return fmt.Sprintf("rtmp://%s/%s", host, videoID)
		case Progressive:
			return fmt.Sprintf("%s/%s.mp4", base, videoID)
		case HLS, DASH, HDS:
			return fmt.Sprintf("%s/%s%s", base, videoID, p.ManifestExtension())
		default:
			return fmt.Sprintf("%s/%s", base, videoID)
		}
	}
	bases := []string{"http://cdn-A.example.net/P001", "http://cdn-A.example.net/P001/", "https://cdn-b.example/pub7/", "", "/"}
	for _, p := range []Protocol{Unknown, HLS, DASH, Smooth, HDS, RTMP, Progressive} {
		for _, base := range bases {
			for _, id := range []string{"P001-v0042", ""} {
				if got, want := ManifestURL(p, base, id), old(p, base, id); got != want {
					t.Errorf("ManifestURL(%v, %q, %q) = %q, fmt gives %q", p, base, id, got, want)
				}
			}
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
		{VideoID: "v", ChunkSec: 4, Ladder: Ladder{{BitrateKbps: 1}}},                  // no duration
		{VideoID: "v", ChunkSec: 4, DurationSec: 10, Ladder: Ladder{{BitrateKbps: 0}}}, // zero bitrate
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
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
func roundTrip(t *testing.T, spec *Spec) *Manifest {
	t.Helper()
	text, err := Generate(spec, "http://cdn-a.example/pub1")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	m, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\nmanifest:\n%s", err, text)
	}
	if len(m.Ladder) != len(spec.Ladder) {
		t.Fatalf("parsed %d renditions, want %d", len(m.Ladder), len(spec.Ladder))
	}
	for i, r := range m.Ladder {
		if r.BitrateKbps != spec.Ladder[i].BitrateKbps {
			t.Errorf("rendition %d bitrate %d, want %d", i, r.BitrateKbps, spec.Ladder[i].BitrateKbps)
		}
	}
	if m.ChunkSec != spec.ChunkSec {
		t.Errorf("ChunkSec %v, want %v", m.ChunkSec, spec.ChunkSec)
	}
	if m.ChunkCount() != spec.ChunkCount() {
		t.Errorf("ChunkCount %d, want %d", m.ChunkCount(), spec.ChunkCount())
	}
	// Every chunk URL must be addressable and distinct per chunk.
	last := ""
	for c := 0; c < m.ChunkCount(); c += m.ChunkCount()/3 + 1 {
		u := m.ChunkURL(len(m.Ladder)-1, c)
		if u == "" || u == last {
			t.Fatalf("degenerate chunk URL %q", u)
		}
		last = u
	}
	return m
}

// TestRoundTripAllProtocolsVoD round-trips every protocol that has a
// manifest codec; HLS is the only one.
func TestRoundTripAllProtocolsVoD(t *testing.T) {
	t.Run(HLS.String(), func(t *testing.T) { roundTrip(t, testSpec()) })
}

func TestHLSMasterContent(t *testing.T) {
	text, err := Generate(testSpec(), "http://cdn-a.example/pub1")
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
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	if _, err := Generate(&Spec{}, "http://x"); err == nil {
		t.Error("Generate accepted an invalid spec")
	}
}

func TestChunkURLPanics(t *testing.T) {
	m := roundTrip(t, testSpec())
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

// Property: for any well-formed spec, round-trips preserve ladder size
// and chunk count.
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
		text, err := Generate(spec, "http://cdn/pub")
		if err != nil {
			return false
		}
		m, err := Parse(text)
		if err != nil {
			return false
		}
		return len(m.Ladder) == n && m.ChunkCount() == spec.ChunkCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
