// Package use consumes alias-wrapped state and mutates it — the
// cross-package laundering chain the whole-program summaries exist to
// see through. Analyzed alone (no dependency summaries in scope) this
// package is clean; analyzed after alias along the import DAG, the
// write below is a finding.
package use

import (
	"vmp/internal/lint/testdata/crosspkg/alias"
	"vmp/internal/telemetry"
)

// Rename mutates a frozen dataset view obtained through the two-hop
// cross-package accessor chain.
func Rename(d *telemetry.Dataset) {
	recs := alias.Records(d)
	recs[0].Publisher = "relabeled" // want frozenwrite "telemetry.Dataset view"
}
