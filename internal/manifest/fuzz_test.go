package manifest

import (
	"strings"
	"testing"
)

// Fuzz targets for the manifest parsers: whatever bytes arrive, the
// parsers must return structured errors, never panic, and any manifest
// they accept must satisfy the package invariants. Run with
// `go test -fuzz FuzzParseHLSMaster ./internal/manifest` to explore;
// the seed corpus runs as part of the ordinary test suite.

func checkParsed(t *testing.T, m *Manifest) {
	t.Helper()
	if m == nil {
		return
	}
	if len(m.Ladder) == 0 {
		t.Fatal("accepted manifest with empty ladder")
	}
	if m.ChunkSec <= 0 {
		t.Fatalf("accepted manifest with ChunkSec %v", m.ChunkSec)
	}
	if m.ChunkCount() <= 0 {
		t.Fatal("accepted manifest with no chunks")
	}
	// Chunk addressing must hold for every corner of the index space.
	_ = m.ChunkURL(0, 0)
	_ = m.ChunkURL(len(m.Ladder)-1, m.ChunkCount()-1)
}

func FuzzParseHLSMaster(f *testing.F) {
	good, _ := Generate(HLS, testSpec(), "http://cdn/p")
	f.Add(good)
	f.Add("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100000\nr0.m3u8\n")
	f.Add("#EXTM3U\n#EXT-X-SESSION-DATA:DATA-ID=\"x\",VALUE=\"chunksec=nope chunks=-3\"\n" +
		"#EXT-X-STREAM-INF:BANDWIDTH=100000\nr0.m3u8\n")
	f.Add("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1000,CODECS=\"a,b\",RESOLUTION=1x\nu\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := parseHLSMaster(text)
		if err == nil {
			checkParsed(t, m)
		}
	})
}

func FuzzParseMPD(f *testing.F) {
	good, _ := Generate(DASH, testSpec(), "http://cdn/p")
	f.Add(good)
	f.Add(timelineMPD)
	f.Add(`<MPD type="static" mediaPresentationDuration="PT10S"><Period id="p0"/></MPD>`)
	f.Add(`<MPD`)
	f.Add(strings.Repeat("<Period>", 40))
	f.Fuzz(func(t *testing.T, text string) {
		m, err := parseMPD(text)
		if err == nil {
			checkParsed(t, m)
		}
	})
}

func FuzzParseSmooth(f *testing.F) {
	good, _ := Generate(Smooth, testSpec(), "http://cdn/p")
	f.Add(good)
	f.Add(`<SmoothStreamingMedia MajorVersion="2"><StreamIndex Type="video"/></SmoothStreamingMedia>`)
	f.Add(`<SmoothStreamingMedia TimeScale="0"><StreamIndex Type="video" Chunks="1">` +
		`<QualityLevel Bitrate="1000"/><c d="0"/></StreamIndex></SmoothStreamingMedia>`)
	f.Fuzz(func(t *testing.T, text string) {
		m, err := parseSmooth(text)
		if err == nil {
			checkParsed(t, m)
		}
	})
}

func FuzzParseHDS(f *testing.F) {
	good, _ := Generate(HDS, testSpec(), "http://cdn/p")
	f.Add(good)
	f.Add(`<manifest><media bitrate="0" url="u"/></manifest>`)
	f.Add(`<manifest><duration>-5</duration><fragmentDuration>4</fragmentDuration>` +
		`<media bitrate="100" url="u"/></manifest>`)
	f.Fuzz(func(t *testing.T, text string) {
		m, err := parseHDS(text)
		if err == nil {
			checkParsed(t, m)
		}
	})
}

// inferProtocolLowered is InferProtocol as it was before it stopped
// allocating: lowercase the whole URL, then compare exactly. It is the
// oracle the in-place ASCII folding is held to.
func inferProtocolLowered(url string) Protocol {
	u := strings.ToLower(strings.TrimSpace(url))
	if strings.HasPrefix(u, "rtmp://") || strings.HasPrefix(u, "rtmps://") ||
		strings.HasPrefix(u, "rtmpe://") || strings.HasPrefix(u, "rtmpt://") {
		return RTMP
	}
	if i := strings.IndexAny(u, "?#"); i >= 0 {
		u = u[:i]
	}
	switch {
	case strings.HasSuffix(u, ".m3u8"), strings.HasSuffix(u, ".m3u"):
		return HLS
	case strings.HasSuffix(u, ".mpd"):
		return DASH
	case strings.HasSuffix(u, ".ism"), strings.HasSuffix(u, ".isml"),
		strings.HasSuffix(u, ".ism/manifest"), strings.HasSuffix(u, ".isml/manifest"):
		return Smooth
	case strings.HasSuffix(u, ".f4m"):
		return HDS
	case strings.HasSuffix(u, ".mp4"), strings.HasSuffix(u, ".flv"):
		return Progressive
	default:
		return Unknown
	}
}

// inferProtocolSeeds are Table 1's extensions and the shapes around
// them that folding in place could get wrong: mixed case, surrounding
// whitespace, a query or fragment after (or holding) the extension,
// the four RTMP schemes, Smooth's "/manifest" tail, and non-ASCII
// letters whose lowercase is an ASCII one the checks look for.
var inferProtocolSeeds = []string{
	"http://x/master.m3u8", "http://x/a.m3u", "http://x/a.mpd", "http://x/a.ism", "http://x/a.isml",
	"http://x/a.ism/manifest", "http://x/a.isml/Manifest", "http://x/a.f4m", "http://x/a.mp4", "http://x/a.flv",
	"rtmp://host/app", "RTMPS://host/app", "rtmpe://h", "RtMpT://h", "rtmpx://h/a.mpd", "rtmp:/h/a.m3u8",
	"HTTP://X/A.MPD?q=1#f", "http://x/a.M3U8#frag", "http://x/a.txt?file=a.mpd", "http://x/a.mpd#.m3u8",
	"  http://x/a.F4M\t\n", "\u00a0http://x/a.mp4\u2003", " rtmp://h ", "?.mpd", "#", "", "://", ".m3u8", "m3u8", ".ism/manifes",
	"http://x/a.\u0130SM", "http://x/a.\u0130sm/manifest", "RTMP\u017f://h", "http://x/a.\u212a", "rtmp\u212a://h",
	"http://x/\u00e9.mpd", "http://x/a.mpd\u00e9", "http://x/a.MP\u00c4", "\xff.flv", "http://x/a.fl\xf6",
}

// TestInferProtocolMatchesLowered runs the seeds under plain `go test`.
func TestInferProtocolMatchesLowered(t *testing.T) {
	for _, url := range inferProtocolSeeds {
		if got, want := InferProtocol(url), inferProtocolLowered(url); got != want {
			t.Errorf("InferProtocol(%q) = %v, lowercasing first gives %v", url, got, want)
		}
	}
}

// FuzzInferProtocol holds InferProtocol to the lowercase-then-compare
// body it replaced, on any string at all. `make fuzz-wire` gives it
// ten seconds.
func FuzzInferProtocol(f *testing.F) {
	for _, url := range inferProtocolSeeds {
		f.Add(url)
	}
	f.Fuzz(func(t *testing.T, url string) {
		if got, want := InferProtocol(url), inferProtocolLowered(url); got != want {
			t.Fatalf("InferProtocol(%q) = %v, lowercasing first gives %v", url, got, want)
		}
	})
}

// TestInferProtocolDoesNotAllocate pins the reason the body changed: an
// epoch cut calls it once per record, on a URL that is nearly unique
// per view.
func TestInferProtocolDoesNotAllocate(t *testing.T) {
	urls := []string{
		"http://cdn-a.example.net/pub-017/v00421/master.m3u8",
		"HTTP://CDN-B.EXAMPLE.NET/PUB-003/V1.ISM/Manifest?session=9#t=10",
		" rtmpe://live.example.net/app/stream ",
		"http://cdn-c.example.net/pub-001/clip.webm",
	}
	var sink Protocol
	if allocs := testing.AllocsPerRun(100, func() {
		for _, u := range urls {
			sink += InferProtocol(u)
		}
	}); allocs != 0 {
		t.Errorf("InferProtocol allocates %.1f times over %d ASCII URLs, want 0", allocs, len(urls))
	}
	_ = sink
}

func FuzzParseISODuration(f *testing.F) {
	f.Add("PT634.500S")
	f.Add("PT1H2M3S")
	f.Add("P1D")
	f.Add("PT")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := parseISODuration(s)
		if err == nil && d <= 0 {
			t.Fatalf("accepted non-positive duration %v from %q", d, s)
		}
	})
}
