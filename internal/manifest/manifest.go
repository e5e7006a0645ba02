// Package manifest implements the streaming-protocol substrate of the
// video management plane: generation and parsing of manifests for the
// four HTTP streaming protocols the paper studies — Apple HLS (.m3u8),
// MPEG-DASH (.mpd), Microsoft SmoothStreaming (.ism), and Adobe HDS
// (.f4m) — together with the protocol-inference rule of Table 1, which
// maps a view's manifest URL to the protocol that served it.
//
// Manifests are real: the HLS generator emits RFC 8216-style playlists
// and the XML protocols emit well-formed documents that the package's
// own parsers (and, for the subset used, real players) understand. The
// playback engine fetches and parses these manifests exactly as the
// paper's instrumented players would, so protocol inference in the
// analytics layer is exercised against genuine artifacts rather than
// labels.
package manifest

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Protocol identifies a streaming protocol, or the non-HTTP delivery
// modes the paper's inference must recognize (RTMP, progressive
// download).
type Protocol int

// The protocols of Table 1, plus RTMP and progressive download (the two
// exceptions called out in §3), plus Unknown for unrecognized URLs.
const (
	Unknown Protocol = iota
	HLS
	DASH
	Smooth
	HDS
	RTMP
	Progressive
)

// HTTPProtocols lists the four HTTP streaming protocols in the order
// the paper's figures present them.
var HTTPProtocols = []Protocol{HLS, DASH, Smooth, HDS}

// String returns the conventional name for the protocol.
func (p Protocol) String() string {
	switch p {
	case HLS:
		return "HLS"
	case DASH:
		return "DASH"
	case Smooth:
		return "SmoothStreaming"
	case HDS:
		return "HDS"
	case RTMP:
		return "RTMP"
	case Progressive:
		return "Progressive"
	default:
		return "Unknown"
	}
}

// ManifestExtension returns the canonical manifest file extension for
// HTTP streaming protocols (Table 1) and the empty string otherwise.
func (p Protocol) ManifestExtension() string {
	switch p {
	case HLS:
		return ".m3u8"
	case DASH:
		return ".mpd"
	case Smooth:
		return ".ism"
	case HDS:
		return ".f4m"
	default:
		return ""
	}
}

// InferProtocol implements Table 1: streaming-protocol inference from a
// view's manifest URL. HLS uses .m3u8/.m3u; DASH uses .mpd;
// SmoothStreaming uses .ism/.isml (often followed by "/manifest"); HDS
// uses .f4m. RTMP is detected from the URL scheme, and progressive
// downloads from media-file extensions (.mp4, .flv). Letter case does
// not matter.
//
// It runs once per record of every epoch cut, so it does not allocate:
// the checks fold ASCII case in place. Only a URL with a non-ASCII byte
// is lowercased first, because Unicode lowercasing can produce a letter
// the checks look for (".İSM" is Smooth: U+0130 lowercases to "i").
func InferProtocol(url string) Protocol {
	u := strings.TrimSpace(url)
	for i := 0; i < len(u); i++ {
		if u[i] >= utf8.RuneSelf {
			u = strings.ToLower(u)
			break
		}
	}
	if hasPrefixFold(u, "rtmp://") || hasPrefixFold(u, "rtmps://") ||
		hasPrefixFold(u, "rtmpe://") || hasPrefixFold(u, "rtmpt://") {
		return RTMP
	}
	// Strip query and fragment; extensions are judged on the path.
	if i := strings.IndexAny(u, "?#"); i >= 0 {
		u = u[:i]
	}
	switch {
	case hasSuffixFold(u, ".m3u8"), hasSuffixFold(u, ".m3u"):
		return HLS
	case hasSuffixFold(u, ".mpd"):
		return DASH
	case hasSuffixFold(u, ".ism"), hasSuffixFold(u, ".isml"),
		hasSuffixFold(u, ".ism/manifest"), hasSuffixFold(u, ".isml/manifest"):
		return Smooth
	case hasSuffixFold(u, ".f4m"):
		return HDS
	case hasSuffixFold(u, ".mp4"), hasSuffixFold(u, ".flv"):
		return Progressive
	default:
		return Unknown
	}
}

// hasPrefixFold reports whether s begins with lower, which must be
// lower-case ASCII, once the letters A to Z of s are folded to a to z.
func hasPrefixFold(s, lower string) bool {
	return len(s) >= len(lower) && equalFold(s[:len(lower)], lower)
}

// hasSuffixFold is hasPrefixFold for the end of s.
func hasSuffixFold(s, lower string) bool {
	return len(s) >= len(lower) && equalFold(s[len(s)-len(lower):], lower)
}

func equalFold(s, lower string) bool {
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Rendition is one encoded bitrate of a video: the unit of adaptation.
type Rendition struct {
	BitrateKbps int    // video bitrate in Kbps
	Width       int    // pixels; zero when unknown
	Height      int    // pixels; zero when unknown
	Codec       string // e.g. "avc1.4d401f"
}

// Ladder is an ordered set of renditions, ascending by bitrate.
type Ladder []Rendition

// Bitrates returns the ladder's bitrates in Kbps, in ladder order.
func (l Ladder) Bitrates() []int {
	out := make([]int, len(l))
	for i, r := range l {
		out[i] = r.BitrateKbps
	}
	return out
}

// Max returns the highest bitrate in the ladder, or 0 for an empty one.
func (l Ladder) Max() int {
	max := 0
	for _, r := range l {
		if r.BitrateKbps > max {
			max = r.BitrateKbps
		}
	}
	return max
}

// Min returns the lowest bitrate in the ladder, or 0 for an empty one.
func (l Ladder) Min() int {
	if len(l) == 0 {
		return 0
	}
	min := l[0].BitrateKbps
	for _, r := range l[1:] {
		if r.BitrateKbps < min {
			min = r.BitrateKbps
		}
	}
	return min
}

// Spec describes a packaged video sufficiently to generate its manifest
// in any protocol.
type Spec struct {
	VideoID     string  // anonymized video identifier
	DurationSec float64 // total playback duration; ignored for live
	ChunkSec    float64 // chunk (segment) duration
	Ladder      Ladder  // video renditions, ascending bitrate
	AudioKbps   int     // audio bitrate
	Live        bool    // live stream vs video-on-demand
	// ByteRange packages each rendition as a single file addressed by
	// byte ranges instead of discrete chunk files (§2: "Some publishers
	// support byte-range addressing"). Only VoD content can use it.
	ByteRange bool
}

// Validate reports whether the spec can generate a well-formed
// manifest.
func (s *Spec) Validate() error {
	switch {
	case s.VideoID == "":
		return errors.New("manifest: empty video ID")
	case s.ChunkSec <= 0:
		return errors.New("manifest: non-positive chunk duration")
	case len(s.Ladder) == 0:
		return errors.New("manifest: empty ladder")
	case !s.Live && s.DurationSec <= 0:
		return errors.New("manifest: non-positive duration for VoD")
	case s.Live && s.ByteRange:
		return errors.New("manifest: byte-range addressing requires VoD content")
	}
	for i, r := range s.Ladder {
		if r.BitrateKbps <= 0 {
			return fmt.Errorf("manifest: rendition %d has non-positive bitrate", i)
		}
	}
	return nil
}

// ChunkCount returns the number of chunks a VoD spec packages into; for
// live specs it returns the size of the sliding window the generators
// advertise (a fixed small number, as real live playlists do).
func (s *Spec) ChunkCount() int {
	if s.Live {
		return liveWindowChunks
	}
	n := int(s.DurationSec / s.ChunkSec)
	if float64(n)*s.ChunkSec < s.DurationSec {
		n++
	}
	return n
}

// liveWindowChunks is the number of segments advertised in a live
// manifest's sliding window.
const liveWindowChunks = 5

// Manifest is the protocol-independent result of parsing any supported
// manifest: everything the control plane needs for adaptation (§2 —
// available bitrates, audio bitrate, chunk duration, chunk URLs).
type Manifest struct {
	Protocol  Protocol
	VideoID   string
	Ladder    Ladder
	AudioKbps int
	ChunkSec  float64
	Live      bool
	// ByteRange reports that chunks are byte ranges of one file per
	// rendition rather than separate objects.
	ByteRange bool
	// ChunkURL returns the URL for chunk i of rendition r. For parsed
	// master-only manifests (HLS) the URLs follow the referenced media
	// playlists' template.
	chunkURL func(rendition, chunk int) string
	chunks   int
}

// ChunkCount returns the number of addressable chunks per rendition.
func (m *Manifest) ChunkCount() int { return m.chunks }

// ChunkURL returns the URL of chunk i for the given rendition index. It
// panics when either index is out of range: the caller is driving
// playback and out-of-range fetches indicate a bug, not bad input.
func (m *Manifest) ChunkURL(rendition, chunk int) string {
	if rendition < 0 || rendition >= len(m.Ladder) {
		panic(fmt.Sprintf("manifest: rendition %d out of range [0,%d)", rendition, len(m.Ladder)))
	}
	if chunk < 0 || chunk >= m.chunks {
		panic(fmt.Sprintf("manifest: chunk %d out of range [0,%d)", chunk, m.chunks))
	}
	return m.chunkURL(rendition, chunk)
}

// ChunkRange returns the byte range of chunk i within the rendition's
// file for byte-range-addressed content: the (offset, length) a client
// puts in its HTTP Range header. It returns ok=false for chunked
// content, where ranges do not apply. Ranges follow the packaging
// arithmetic: length = (video+audio bitrate) × chunk duration / 8.
func (m *Manifest) ChunkRange(rendition, chunk int) (offset, length int64, ok bool) {
	if !m.ByteRange {
		return 0, 0, false
	}
	if rendition < 0 || rendition >= len(m.Ladder) {
		panic(fmt.Sprintf("manifest: rendition %d out of range [0,%d)", rendition, len(m.Ladder)))
	}
	if chunk < 0 || chunk >= m.chunks {
		panic(fmt.Sprintf("manifest: chunk %d out of range [0,%d)", chunk, m.chunks))
	}
	length = int64(float64(m.Ladder[rendition].BitrateKbps+m.AudioKbps) * 1000 * m.ChunkSec / 8)
	return int64(chunk) * length, length, true
}

// Generate renders the spec as manifest text in the given protocol.
// baseURL is the prefix under which chunk URLs are minted (typically a
// CDN host plus publisher path). It returns an error for protocols
// without a manifest format (RTMP, Progressive) and for invalid specs.
func Generate(p Protocol, spec *Spec, baseURL string) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	base := strings.TrimSuffix(baseURL, "/")
	switch p {
	case HLS:
		return generateHLSMaster(spec, base), nil
	case DASH:
		return generateMPD(spec, base)
	case Smooth:
		return generateSmooth(spec, base)
	case HDS:
		return generateHDS(spec, base)
	default:
		return "", fmt.Errorf("manifest: protocol %v has no manifest format", p)
	}
}

// Parse decodes manifest text fetched from url, inferring the protocol
// from the URL per Table 1 and dispatching to the protocol's parser.
func Parse(url, text string) (*Manifest, error) {
	switch p := InferProtocol(url); p {
	case HLS:
		return parseHLSMaster(text)
	case DASH:
		return parseMPD(text)
	case Smooth:
		return parseSmooth(text)
	case HDS:
		return parseHDS(text)
	default:
		return nil, fmt.Errorf("manifest: cannot infer a parseable protocol from %q", url)
	}
}

// ManifestURL mints the canonical manifest URL for a video packaged in
// protocol p under baseURL (e.g. "http://cdn-a.example/pub7/v123.mpd",
// or ".../v123.ism/manifest" for SmoothStreaming, matching the sample
// URLs of Table 1).
func ManifestURL(p Protocol, baseURL, videoID string) string {
	base := strings.TrimSuffix(baseURL, "/")
	switch p {
	case Smooth:
		return base + "/" + videoID + ".ism/manifest"
	case RTMP:
		host := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		return "rtmp://" + host + "/" + videoID
	case Progressive:
		return base + "/" + videoID + ".mp4"
	case HLS, DASH, HDS:
		return base + "/" + videoID + p.ManifestExtension()
	default:
		return base + "/" + videoID
	}
}
