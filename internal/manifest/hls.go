package manifest

import (
	"fmt"
	"strconv"
	"strings"
)

// HLS manifest support: master playlists referencing one media playlist
// per rendition, RFC 8216 tag subset. The generator additionally emits
// an #EXT-X-SESSION-DATA tag carrying the packaging metadata (video ID,
// chunk duration, chunk count, audio bitrate) so that a parsed master is
// self-sufficient for simulation; real players ignore unknown session
// data.

// Generate renders the spec as an HLS master playlist. baseURL is the
// prefix under which the media playlists and chunks are addressed
// (typically a CDN host plus publisher path). It returns an error for
// an invalid spec.
func Generate(spec *Spec, baseURL string) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	base := strings.TrimSuffix(baseURL, "/")
	var b strings.Builder
	b.WriteString("#EXTM3U\n#EXT-X-VERSION:3\n")
	fmt.Fprintf(&b,
		"#EXT-X-SESSION-DATA:DATA-ID=\"com.vmp.package\",VALUE=\"video=%s chunksec=%g chunks=%d audio=%d\"\n",
		spec.VideoID, spec.ChunkSec, spec.ChunkCount(), spec.AudioKbps)
	for i, r := range spec.Ladder {
		attrs := fmt.Sprintf("BANDWIDTH=%d", (r.BitrateKbps+spec.AudioKbps)*1000)
		if r.Width > 0 && r.Height > 0 {
			attrs += fmt.Sprintf(",RESOLUTION=%dx%d", r.Width, r.Height)
		}
		if r.Codec != "" {
			attrs += fmt.Sprintf(",CODECS=%q", r.Codec)
		}
		fmt.Fprintf(&b, "#EXT-X-STREAM-INF:%s\n%s/%s/r%d.m3u8\n", attrs, base, spec.VideoID, i)
	}
	return b.String(), nil
}

// Parse decodes an HLS master playlist. Renditions appear in playlist
// order; chunk addressing follows the media-playlist URI convention
// emitted by the generator.
func Parse(text string) (*Manifest, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "#EXTM3U" {
		return nil, fmt.Errorf("manifest: not an HLS playlist")
	}
	m := &Manifest{chunks: 1, ChunkSec: 1}
	var pending *Rendition
	for _, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "#EXT-X-SESSION-DATA:"):
			parseHLSSessionData(line, m)
		case strings.HasPrefix(line, "#EXT-X-STREAM-INF:"):
			r, err := parseStreamInf(strings.TrimPrefix(line, "#EXT-X-STREAM-INF:"), m.AudioKbps)
			if err != nil {
				return nil, err
			}
			pending = &r
		case line == "" || strings.HasPrefix(line, "#"):
			// Comment or unrelated tag.
		default:
			if pending == nil {
				return nil, fmt.Errorf("manifest: URI %q without #EXT-X-STREAM-INF", line)
			}
			m.Ladder = append(m.Ladder, *pending)
			m.renditions = append(m.renditions, chunkURLs{mediaURI: line})
			pending = nil
		}
	}
	if len(m.Ladder) == 0 {
		return nil, fmt.Errorf("manifest: HLS master has no variants")
	}
	return m, nil
}

// parseHLSSessionData extracts the generator's packaging metadata.
// Unknown or malformed session data is ignored, as a real player would.
func parseHLSSessionData(line string, m *Manifest) {
	i := strings.Index(line, `VALUE="`)
	if i < 0 {
		return
	}
	val := line[i+len(`VALUE="`):]
	if j := strings.Index(val, `"`); j >= 0 {
		val = val[:j]
	}
	for _, field := range strings.Fields(val) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		switch k {
		case "video":
			m.VideoID = v
		case "chunksec":
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				m.ChunkSec = f
			}
		case "chunks":
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				m.chunks = n
			}
		case "audio":
			if n, err := strconv.Atoi(v); err == nil {
				m.AudioKbps = n
			}
		}
	}
}

// parseStreamInf parses the attribute list of an #EXT-X-STREAM-INF tag.
func parseStreamInf(attrs string, audioKbps int) (Rendition, error) {
	var r Rendition
	for _, kv := range splitHLSAttrs(attrs) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "BANDWIDTH":
			bw, err := strconv.Atoi(v)
			if err != nil {
				return r, fmt.Errorf("manifest: bad BANDWIDTH %q", v)
			}
			r.BitrateKbps = bw/1000 - audioKbps
		case "RESOLUTION":
			w, h, ok := strings.Cut(v, "x")
			if ok {
				r.Width, _ = strconv.Atoi(w)
				r.Height, _ = strconv.Atoi(h)
			}
		case "CODECS":
			r.Codec = strings.Trim(v, `"`)
		}
	}
	if r.BitrateKbps <= 0 {
		return r, fmt.Errorf("manifest: variant without positive BANDWIDTH")
	}
	return r, nil
}

// splitHLSAttrs splits an HLS attribute list on commas, respecting
// quoted values (CODECS="avc1.4d401f,mp4a.40.2" must not split).
func splitHLSAttrs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
