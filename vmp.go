package vmp

import (
	"fmt"
	"io"

	"vmp/internal/core"
	"vmp/internal/ecosystem"
	"vmp/internal/telemetry"
)

// Config parameterizes a study run. The zero value reproduces the
// paper's full setup: seed 1809, bi-weekly two-day snapshots over
// January 2016 – March 2018, and 150 playback sessions per publisher
// in the QoE experiments.
type Config = core.StudyConfig

// Study is a generated dataset plus the paper's analysis suite: one
// method per table and figure (Table1, Fig2a … Fig18), plus Render and
// RenderAll for text output. See internal/core for the method set.
type Study = core.Study

// Figures lists every renderable table/figure ID in presentation
// order.
var Figures = core.FigureIDs

// DefaultSeed is the seed used by all documented experiments.
const DefaultSeed = ecosystem.DefaultSeed

// New builds a study. Dataset generation is lazy: the first figure
// that needs view records triggers it.
func New(cfg Config) *Study { return core.NewStudy(cfg) }

// NewFromStore builds a study over an existing record store (e.g. a
// dataset decoded with ReadDataset) instead of generating one.
func NewFromStore(cfg Config, store *telemetry.Store) *Study {
	return core.NewStudyFromStore(cfg, store)
}

// WriteDataset generates the study's full view-record dataset and
// writes it to w as JSON lines — the interchange format cmd/vmpgen
// emits and cmd/vmpd ingests.
func WriteDataset(s *Study, w io.Writer) error {
	return telemetry.EncodeJSONL(w, s.Store().All())
}

// ReadDataset parses a JSON-lines dataset into a telemetry store to
// build a study over with NewFromStore. It reads exactly as vmpd -load
// does: a line that does not parse, or has no publisher, fails the
// whole file.
func ReadDataset(r io.Reader) (*telemetry.Store, error) {
	recs, bad, err := telemetry.ScanJSONL(r)
	if err != nil {
		return nil, err
	}
	if bad > 0 {
		return nil, fmt.Errorf("%d malformed lines", bad)
	}
	return telemetry.NewStore(recs), nil
}
