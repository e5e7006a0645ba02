package manifest

import (
	"strings"
	"testing"
)

const timelineMPD = `<?xml version="1.0"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static" id="vtl"
     mediaPresentationDuration="PT24S" profiles="urn:mpeg:dash:profile:isoff-live:2011">
  <Period id="p0">
    <AdaptationSet contentType="video">
      <SegmentTemplate media="vtl/$RepresentationID$/t$Time$.m4s" timescale="1000">
        <SegmentTimeline>
          <S t="0" d="4000" r="2"/>
          <S d="6000" r="1"/>
        </SegmentTimeline>
      </SegmentTemplate>
      <Representation id="r0" bandwidth="400000"/>
      <Representation id="r1" bandwidth="1200000"/>
    </AdaptationSet>
    <AdaptationSet contentType="audio">
      <Representation id="audio" bandwidth="96000"/>
    </AdaptationSet>
  </Period>
</MPD>`

func TestParseMPDSegmentTimeline(t *testing.T) {
	m, err := parseMPD(timelineMPD)
	if err != nil {
		t.Fatal(err)
	}
	// 3 segments of 4s + 2 of 6s = 5 segments, 24s total.
	if m.ChunkCount() != 5 {
		t.Fatalf("ChunkCount = %d, want 5", m.ChunkCount())
	}
	if m.ChunkSec != 24.0/5 {
		t.Fatalf("mean ChunkSec = %v, want 4.8", m.ChunkSec)
	}
	if len(m.Ladder) != 2 || m.AudioKbps != 96 {
		t.Fatalf("ladder/audio wrong: %+v", m)
	}
	// $Time$ addressing: cumulative start times 0,4000,8000,12000,18000.
	wantTimes := []string{"t0.m4s", "t4000.m4s", "t8000.m4s", "t12000.m4s", "t18000.m4s"}
	for i, want := range wantTimes {
		u := m.ChunkURL(1, i)
		if !strings.HasSuffix(u, want) {
			t.Errorf("chunk %d URL = %q, want suffix %q", i, u, want)
		}
		if !strings.Contains(u, "/r1/") {
			t.Errorf("chunk URL missing representation ID: %q", u)
		}
	}
}

func TestParseMPDTimelineImplicitT(t *testing.T) {
	// Without @t the run continues from the previous end.
	mpd := strings.Replace(timelineMPD, `<S t="0" d="4000" r="2"/>`, `<S d="4000" r="2"/>`, 1)
	m, err := parseMPD(mpd)
	if err != nil {
		t.Fatal(err)
	}
	if u := m.ChunkURL(0, 0); !strings.HasSuffix(u, "t0.m4s") {
		t.Fatalf("first chunk = %q, want t0", u)
	}
}

func TestParseMPDTimelineErrors(t *testing.T) {
	cases := map[string]string{
		"zero duration":  strings.Replace(timelineMPD, `d="4000"`, `d="0"`, 1),
		"negative r":     strings.Replace(timelineMPD, `r="2"`, `r="-3"`, 1),
		"empty timeline": strings.Replace(strings.Replace(timelineMPD, `<S t="0" d="4000" r="2"/>`, "", 1), `<S d="6000" r="1"/>`, "", 1),
	}
	for name, mpd := range cases {
		if _, err := parseMPD(mpd); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseMPDTimelinePlaysBack(t *testing.T) {
	// A timeline manifest must satisfy the same addressing contract as
	// a template manifest end to end.
	m, err := parseMPD(timelineMPD)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for c := 0; c < m.ChunkCount(); c++ {
		for r := 0; r < len(m.Ladder); r++ {
			u := m.ChunkURL(r, c)
			if seen[u] {
				t.Fatalf("duplicate chunk URL %q", u)
			}
			seen[u] = true
		}
	}
}
