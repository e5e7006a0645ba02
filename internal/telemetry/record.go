// Package telemetry reproduces the measurement substrate of the study:
// the per-view metadata records a Conviva-style monitoring library
// reports from inside publishers' players (§3), the immutable columnar
// Dataset every analysis and every served query runs over, and the
// client sensor that reports records over the wire. The backend the
// sensor reports to is internal/live (cmd/vmpd).
package telemetry

import "vmp/internal/telemetry/record"

// ViewRecord is the per-view metadata record (§3). The definition
// lives in the leaf package internal/telemetry/record so the wire
// codecs (internal/wire) can share it without an import cycle; the
// alias keeps telemetry.ViewRecord the canonical name everywhere else.
type ViewRecord = record.ViewRecord

// Store is a record set in CanonicalSort order before its columns
// exist: the generator's array or a decoded JSONL file, sorted in place
// by NewStore, for NewDataset to freeze. It is not a second dataset
// type — it answers nothing but its length and its rows; every query
// runs over the Dataset built on the same array.
type Store struct{ records []ViewRecord }

// NewStore takes ownership of recs and puts them in canonical order, in
// place. Rows with no publisher at the zero time — those the generator
// reserved for views it then dropped — sort first and are left out: the
// store holds the rest of the array.
func NewStore(recs []ViewRecord) *Store {
	CanonicalSort(recs)
	dropped := 0
	for dropped < len(recs) && recs[dropped].Publisher == "" && recs[dropped].Timestamp.IsZero() {
		dropped++
	}
	return &Store{records: recs[dropped:]}
}

// Len returns the number of records stored.
func (s *Store) Len() int { return len(s.records) }

// All returns every record in canonical order as a read-only view: the
// array is the one a Dataset built from this store holds.
func (s *Store) All() []ViewRecord { return s.records }
