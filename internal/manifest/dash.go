package manifest

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// MPEG-DASH manifest support: a single-Period MPD with one video
// AdaptationSet using SegmentTemplate number addressing, plus one audio
// AdaptationSet. This is the profile the DASH-IF interoperability
// guidelines recommend for on-demand and live content and is the layout
// our players consume.

type mpdXML struct {
	XMLName  xml.Name    `xml:"MPD"`
	Xmlns    string      `xml:"xmlns,attr"`
	Type     string      `xml:"type,attr"`
	Duration string      `xml:"mediaPresentationDuration,attr,omitempty"`
	Profiles string      `xml:"profiles,attr"`
	VideoID  string      `xml:"id,attr"`
	Periods  []periodXML `xml:"Period"`
}

type periodXML struct {
	ID             string        `xml:"id,attr"`
	AdaptationSets []adaptSetXML `xml:"AdaptationSet"`
}

type adaptSetXML struct {
	ContentType     string     `xml:"contentType,attr"`
	SegmentTemplate *segTplXML `xml:"SegmentTemplate"`
	Representations []repXML   `xml:"Representation"`
}

type segTplXML struct {
	Media       string       `xml:"media,attr"`
	Timescale   int          `xml:"timescale,attr"`
	Duration    int          `xml:"duration,attr"`
	StartNumber int          `xml:"startNumber,attr"`
	Timeline    *timelineXML `xml:"SegmentTimeline"`
}

// timelineXML is the SegmentTimeline alternative to @duration: an
// explicit list of segment runs, each with a start time t, duration d,
// and repeat count r (r additional segments after the first).
type timelineXML struct {
	Segments []timelineSXML `xml:"S"`
}

type timelineSXML struct {
	T *int64 `xml:"t,attr"` // start time; defaults to previous end
	D int64  `xml:"d,attr"`
	R int    `xml:"r,attr"` // repeats after the first occurrence
}

type repXML struct {
	ID        string `xml:"id,attr"`
	Bandwidth int    `xml:"bandwidth,attr"`
	Width     int    `xml:"width,attr,omitempty"`
	Height    int    `xml:"height,attr,omitempty"`
	Codecs    string `xml:"codecs,attr,omitempty"`
}

const dashTimescale = 1000

// generateMPD renders spec as a DASH MPD with @duration template
// addressing.
func generateMPD(spec *Spec, base string) (string, error) {
	doc := buildMPD(spec, &segTplXML{
		Media:       base + "/" + spec.VideoID + "/$RepresentationID$/seg$Number$.m4s",
		Timescale:   dashTimescale,
		Duration:    int(spec.ChunkSec * dashTimescale),
		StartNumber: 0,
	})
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("manifest: marshaling MPD: %w", err)
	}
	return xml.Header + string(out) + "\n", nil
}

// buildMPD assembles the MPD document around a video segment template.
func buildMPD(spec *Spec, tpl *segTplXML) mpdXML {
	video := adaptSetXML{
		ContentType:     "video",
		SegmentTemplate: tpl,
	}
	for i, r := range spec.Ladder {
		video.Representations = append(video.Representations, repXML{
			ID:        fmt.Sprintf("r%d", i),
			Bandwidth: r.BitrateKbps * 1000,
			Width:     r.Width,
			Height:    r.Height,
			Codecs:    r.Codec,
		})
	}
	audio := adaptSetXML{
		ContentType: "audio",
		Representations: []repXML{{
			ID:        "audio",
			Bandwidth: spec.AudioKbps * 1000,
			Codecs:    "mp4a.40.2",
		}},
	}
	doc := mpdXML{
		Xmlns:    "urn:mpeg:dash:schema:mpd:2011",
		VideoID:  spec.VideoID,
		Profiles: "urn:mpeg:dash:profile:isoff-live:2011",
		Periods:  []periodXML{{ID: "p0", AdaptationSets: []adaptSetXML{video, audio}}},
	}
	if spec.Live {
		doc.Type = "dynamic"
	} else {
		doc.Type = "static"
		doc.Duration = fmt.Sprintf("PT%.3fS", spec.DurationSec)
	}
	return doc
}

// parseMPD decodes an MPD into the common Manifest form.
func parseMPD(text string) (*Manifest, error) {
	var doc mpdXML
	if err := xml.Unmarshal([]byte(text), &doc); err != nil {
		return nil, fmt.Errorf("manifest: parsing MPD: %w", err)
	}
	if len(doc.Periods) == 0 {
		return nil, fmt.Errorf("manifest: MPD has no Period")
	}
	m := &Manifest{Protocol: DASH, VideoID: doc.VideoID, Live: doc.Type == "dynamic"}
	var tpl *segTplXML
	var repIDs []string
	for _, as := range doc.Periods[0].AdaptationSets {
		switch as.ContentType {
		case "video":
			tpl = as.SegmentTemplate
			for _, r := range as.Representations {
				m.Ladder = append(m.Ladder, Rendition{
					BitrateKbps: r.Bandwidth / 1000,
					Width:       r.Width,
					Height:      r.Height,
					Codec:       r.Codecs,
				})
				repIDs = append(repIDs, r.ID)
			}
		case "audio":
			if len(as.Representations) > 0 {
				m.AudioKbps = as.Representations[0].Bandwidth / 1000
			}
		}
	}
	if len(m.Ladder) == 0 {
		return nil, fmt.Errorf("manifest: MPD has no video representations")
	}
	if tpl == nil || tpl.Timescale <= 0 {
		return nil, fmt.Errorf("manifest: MPD video set lacks a usable SegmentTemplate")
	}
	if tpl.Timeline != nil {
		return parseMPDTimeline(m, tpl, repIDs)
	}
	if tpl.Duration <= 0 {
		return nil, fmt.Errorf("manifest: SegmentTemplate needs @duration or a SegmentTimeline")
	}
	m.ChunkSec = float64(tpl.Duration) / float64(tpl.Timescale)
	if m.Live {
		m.chunks = liveWindowChunks
	} else {
		dur, err := parseISODuration(doc.Duration)
		if err != nil {
			return nil, err
		}
		m.chunks = int(dur / m.ChunkSec)
		if float64(m.chunks)*m.ChunkSec < dur {
			m.chunks++
		}
	}
	media, start := tpl.Media, tpl.StartNumber
	m.chunkURL = func(rendition, chunk int) string {
		u := strings.ReplaceAll(media, "$RepresentationID$", repIDs[rendition])
		return strings.ReplaceAll(u, "$Number$", strconv.Itoa(start+chunk))
	}
	return m, nil
}

// parseMPDTimeline finishes parsing an MPD whose video SegmentTemplate
// carries an explicit SegmentTimeline: segments are addressed by
// $Time$ (or $Number$), with durations taken from the timeline runs.
func parseMPDTimeline(m *Manifest, tpl *segTplXML, repIDs []string) (*Manifest, error) {
	var (
		starts []int64
		next   int64
	)
	totalDur := int64(0)
	for _, s := range tpl.Timeline.Segments {
		if s.D <= 0 {
			return nil, fmt.Errorf("manifest: SegmentTimeline S@d must be positive")
		}
		if s.R < 0 {
			return nil, fmt.Errorf("manifest: SegmentTimeline S@r must be non-negative")
		}
		if s.T != nil {
			next = *s.T
		}
		for k := 0; k <= s.R; k++ {
			starts = append(starts, next)
			next += s.D
			totalDur += s.D
			if len(starts) > 1<<20 {
				return nil, fmt.Errorf("manifest: SegmentTimeline too long")
			}
		}
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("manifest: empty SegmentTimeline")
	}
	m.chunks = len(starts)
	// The common Manifest carries one nominal chunk duration; use the
	// mean, which is exact for uniform timelines.
	m.ChunkSec = float64(totalDur) / float64(len(starts)) / float64(tpl.Timescale)
	media, startNum := tpl.Media, tpl.StartNumber
	m.chunkURL = func(rendition, chunk int) string {
		u := strings.ReplaceAll(media, "$RepresentationID$", repIDs[rendition])
		u = strings.ReplaceAll(u, "$Time$", strconv.FormatInt(starts[chunk], 10))
		return strings.ReplaceAll(u, "$Number$", strconv.Itoa(startNum+chunk))
	}
	return m, nil
}

// parseISODuration parses the "PT<n>S" subset of ISO 8601 durations the
// generator emits, plus the PT#M#S and PT#H#M#S forms for robustness
// against hand-written MPDs.
func parseISODuration(s string) (float64, error) {
	orig := s
	if !strings.HasPrefix(s, "PT") {
		return 0, fmt.Errorf("manifest: bad ISO duration %q", orig)
	}
	s = s[2:]
	total := 0.0
	num := ""
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9' || c == '.':
			num += string(c)
		case c == 'H' || c == 'M' || c == 'S':
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("manifest: bad ISO duration %q", orig)
			}
			switch c {
			case 'H':
				total += v * 3600
			case 'M':
				total += v * 60
			case 'S':
				total += v
			}
			num = ""
		default:
			return 0, fmt.Errorf("manifest: bad ISO duration %q", orig)
		}
	}
	if num != "" {
		return 0, fmt.Errorf("manifest: bad ISO duration %q", orig)
	}
	if total <= 0 {
		return 0, fmt.Errorf("manifest: non-positive ISO duration %q", orig)
	}
	return total, nil
}
