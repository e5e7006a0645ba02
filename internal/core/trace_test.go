package core

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
)

// TestRenderFigureSpans checks the per-figure instrumentation: with a
// tracer attached, every Render records one figure.<id> span, and the
// shared study (no tracer) records nothing.
func TestRenderFigureSpans(t *testing.T) {
	s := study(t)
	if s.tracer != nil {
		t.Fatal("shared study should have no tracer")
	}
	tr := obs.NewTracer(simclock.NewManual(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)), 64)
	s.SetTracer(tr)
	defer s.SetTracer(nil)

	for _, id := range []string{"tab1", "5", "tab1"} {
		if err := s.Render(io.Discard, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Render(io.Discard, "no-such-figure"); err == nil {
		t.Fatal("unknown figure should error")
	}

	stats := tr.StageStats()
	byName := map[string]obs.StageStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["figure.tab1"].Count != 2 {
		t.Fatalf("figure.tab1 count: %+v", stats)
	}
	if byName["figure.5"].Count != 1 {
		t.Fatalf("figure.5 count: %+v", stats)
	}
	if byName["figure.no-such-figure"].Count != 1 {
		t.Fatalf("failed renders should still be timed: %+v", stats)
	}
	var snap = tr.Snapshot()
	for _, sp := range snap.Spans {
		want := int64(1)
		if sp.Name == "figure.no-such-figure" {
			want = 0
		}
		if sp.Attrs["ok"] != want {
			t.Fatalf("span %s ok attr %d, want %d", sp.Name, sp.Attrs["ok"], want)
		}
	}
}

// TestRenderTraceDeterministic renders the same cheap figures twice
// under frozen manual clocks and requires byte-identical trace JSON —
// the study engine rides the same determinism contract as the serving
// plane.
func TestRenderTraceDeterministic(t *testing.T) {
	s := study(t)
	run := func() []byte {
		tr := obs.NewTracer(simclock.NewManual(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)), 64)
		s.SetTracer(tr)
		defer s.SetTracer(nil)
		for _, id := range []string{"tab1", "5"} {
			if err := s.Render(io.Discard, id); err != nil {
				t.Fatal(err)
			}
		}
		out, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("figure trace diverged:\n%s\n%s", a, b)
	}
}
