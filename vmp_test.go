package vmp_test

import (
	"bytes"
	"strings"
	"testing"

	"vmp"
	"vmp/internal/telemetry"
)

// facadeStudy is shared across the public-API tests.
var facadeStudy = vmp.New(vmp.Config{SnapshotStride: 20, QoESessions: 20})

func TestFacadeFiguresList(t *testing.T) {
	if len(vmp.Figures) < 30 {
		t.Fatalf("Figures lists %d experiments, want the full set", len(vmp.Figures))
	}
	seen := map[string]bool{}
	for _, id := range vmp.Figures {
		if seen[id] {
			t.Fatalf("duplicate figure ID %q", id)
		}
		seen[id] = true
	}
	for _, must := range []string{"tab1", "2b", "13a", "18", "macro"} {
		if !seen[must] {
			t.Fatalf("figure %q missing from the public list", must)
		}
	}
}

func TestFacadeRender(t *testing.T) {
	var buf bytes.Buffer
	if err := facadeStudy.Render(&buf, "tab1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SmoothStreaming") {
		t.Fatalf("Table 1 output incomplete: %s", buf.String())
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := vmp.WriteDataset(facadeStudy, &buf); err != nil {
		t.Fatal(err)
	}
	store, err := vmp.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != facadeStudy.Store().Len() {
		t.Fatalf("round trip lost records: %d vs %d", store.Len(), facadeStudy.Store().Len())
	}
	viewHours := func(recs []telemetry.ViewRecord) (total float64) {
		for i := range recs {
			total += recs[i].ViewHours()
		}
		return total
	}
	if got, want := viewHours(store.All()), viewHours(facadeStudy.Store().All()); got < want*0.999 || got > want*1.001 {
		t.Fatalf("view-hours drifted through serialization: %v vs %v", got, want)
	}
	if _, err := vmp.ReadDataset(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage dataset accepted")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	a := vmp.New(vmp.Config{SnapshotStride: 30})
	b := vmp.New(vmp.Config{SnapshotStride: 30})
	var bufA, bufB bytes.Buffer
	if err := a.Render(&bufA, "3a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&bufB, "3a"); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatal("two default studies rendered different figures")
	}
}

func TestDefaultSeedStable(t *testing.T) {
	// The documented experiments all assume this seed; changing it
	// invalidates EXPERIMENTS.md.
	if vmp.DefaultSeed != 1809 {
		t.Fatalf("DefaultSeed = %d; update EXPERIMENTS.md if this is intentional", vmp.DefaultSeed)
	}
}
