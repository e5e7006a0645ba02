// Package manifest implements the streaming-protocol substrate of the
// video management plane. It has two halves.
//
// The protocol-inference rule of Table 1 maps a view's manifest URL to
// the protocol that served it, across all six delivery modes the paper
// names: Apple HLS (.m3u8), MPEG-DASH (.mpd), Microsoft SmoothStreaming
// (.ism), Adobe HDS (.f4m), RTMP and progressive download. ManifestURL
// mints those URLs for generated view records, and InferProtocol reads
// them back in the analysis (Table 1, Figs 2-4).
//
// The one manifest format the package generates and parses is an HLS
// VoD master playlist (RFC 8216 tag subset). The Fig 15/16 playback
// sessions fetch and parse it to learn the ladder they adapt over; the
// QoE figures do not depend on the format the ladder travels in.
package manifest

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// Strip query and fragment; extensions are judged on the path. A
	// byte loop, not strings.IndexAny, which builds its set per call.
	for i := 0; i < len(u); i++ {
		if u[i] == '?' || u[i] == '#' {
			u = u[:i]
			break
		}
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

// Spec describes a packaged video-on-demand title sufficiently to
// generate its manifest.
type Spec struct {
	VideoID     string  // anonymized video identifier
	DurationSec float64 // total playback duration
	ChunkSec    float64 // chunk (segment) duration
	Ladder      Ladder  // video renditions, ascending bitrate
	AudioKbps   int     // audio bitrate
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
	case s.DurationSec <= 0:
		return errors.New("manifest: non-positive duration")
	}
	for i, r := range s.Ladder {
		if r.BitrateKbps <= 0 {
			return fmt.Errorf("manifest: rendition %d has non-positive bitrate", i)
		}
	}
	return nil
}

// ChunkCount returns the number of chunks the spec packages into.
func (s *Spec) ChunkCount() int {
	n := int(s.DurationSec / s.ChunkSec)
	if float64(n)*s.ChunkSec < s.DurationSec {
		n++
	}
	return n
}

// Manifest is the result of parsing a master playlist: everything the
// control plane needs for adaptation (§2 — available bitrates, audio
// bitrate, chunk duration, chunk URLs). It is safe for concurrent use.
type Manifest struct {
	VideoID   string
	Ladder    Ladder
	AudioKbps int
	ChunkSec  float64
	// renditions holds the master's variant URIs, one per rendition,
	// and the chunk URLs built under them so far.
	renditions []chunkURLs
	chunks     int
}

// chunkURLs builds one rendition's chunk URLs on demand and keeps them,
// so every session that plays the manifest fetches the same strings.
// They are built up to the highest chunk asked for, doubling, and never
// past maxChunkURLs: Parse reads untrusted text, and what it keeps must
// not grow with the chunk count a master declares.
//
// Every chunk fetch of every session reads here, so a read takes no
// lock: growth publishes a new slice, under mu, and a published slice
// is never written again. (A mutex around every read cost Fig 15/16's
// playback about 15 %.)
type chunkURLs struct {
	mediaURI string
	mu       sync.Mutex // serializes growth
	urls     atomic.Pointer[[]string]
}

// maxChunkURLs is the most URLs a rendition keeps: 4096 four-second
// chunks are four and a half hours of video. Chunks past the last kept
// one are built on every call.
const maxChunkURLs = 4096

// url returns chunk i's URL, building and keeping the URLs up to it if
// needed; i must be below limit, the manifest's chunk count.
func (c *chunkURLs) url(i, limit int) string {
	if p := c.urls.Load(); p != nil && i < len(*p) {
		return (*p)[i]
	}
	if i >= maxChunkURLs {
		return chunkURL(c.mediaURI, i)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var urls []string
	if p := c.urls.Load(); p != nil {
		urls = *p
	}
	if i < len(urls) {
		return urls[i]
	}
	grown := make([]string, len(urls), min(max(2*len(urls), i+1), limit, maxChunkURLs))
	copy(grown, urls)
	for k := len(urls); k < cap(grown); k++ {
		grown = append(grown, chunkURL(c.mediaURI, k))
	}
	c.urls.Store(&grown)
	return grown[i]
}

// chunkURL is the media playlists' template: the chunks of
// <base>/r<k>.m3u8 are <base>/r<k>/seg<i>.ts.
func chunkURL(mediaURI string, i int) string {
	return strings.TrimSuffix(mediaURI, ".m3u8") + "/seg" + strconv.Itoa(i) + ".ts"
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
	return m.renditions[rendition].url(chunk, m.chunks)
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
