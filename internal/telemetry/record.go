// Package telemetry reproduces the measurement substrate of the study:
// the per-view metadata records a Conviva-style monitoring library
// reports from inside publishers' players (§3), an in-memory store that
// supports the snapshot queries the analyses run, and the client sensor
// that reports records over the wire. The backend the sensor reports to
// is internal/live (cmd/vmpd).
package telemetry

import (
	"sort"
	"sync"

	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
)

// ViewRecord is the per-view metadata record (§3). The definition
// lives in the leaf package internal/telemetry/record so the wire
// codecs (internal/wire) can share it without an import cycle; the
// alias keeps telemetry.ViewRecord the canonical name everywhere else.
type ViewRecord = record.ViewRecord

// Store is an append-only, query-by-window view-record store: the
// simulation's stand-in for the analytics backend's dataset. It is safe
// for concurrent use; Append keeps records ordered by timestamp
// internally via sort-on-read with invalidation, so bulk generation
// stays cheap. The sort runs once per append generation (a sync.Once
// replaced on Append), so concurrent readers share the read lock
// instead of serializing on the write lock. For read-heavy analysis,
// Freeze the store into an immutable Dataset.
type Store struct {
	mu       sync.RWMutex
	records  []ViewRecord
	sortOnce *sync.Once
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{sortOnce: new(sync.Once)} }

// Append adds records to the store.
func (s *Store) Append(records ...ViewRecord) {
	if len(records) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, records...)
	s.sortOnce = new(sync.Once)
}

// Len returns the number of records stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// ensureSorted orders records by timestamp. The first reader of an
// append generation pays for the sort (under the write lock); every
// other reader just waits on the Once and proceeds under RLock.
func (s *Store) ensureSorted() {
	s.mu.RLock()
	once := s.sortOnce
	s.mu.RUnlock()
	once.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		sort.SliceStable(s.records, func(i, j int) bool {
			return s.records[i].Timestamp.Before(s.records[j].Timestamp)
		})
	})
}

// Window returns the records whose timestamps fall inside the snapshot,
// as a copy safe to retain.
func (s *Store) Window(snap simclock.Snapshot) []ViewRecord {
	s.ensureSorted()
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.records), func(i int) bool {
		return !s.records[i].Timestamp.Before(snap.Start)
	})
	hi := sort.Search(len(s.records), func(i int) bool {
		return !s.records[i].Timestamp.Before(snap.End())
	})
	out := make([]ViewRecord, hi-lo)
	copy(out, s.records[lo:hi])
	return out
}

// All returns a copy of every record in timestamp order.
func (s *Store) All() []ViewRecord {
	s.ensureSorted()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ViewRecord, len(s.records))
	copy(out, s.records)
	return out
}

// Select returns the records matching keep, in timestamp order.
func (s *Store) Select(keep func(*ViewRecord) bool) []ViewRecord {
	s.ensureSorted()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ViewRecord
	for i := range s.records {
		if keep(&s.records[i]) {
			out = append(out, s.records[i])
		}
	}
	return out
}

// Publishers returns the distinct publisher IDs present, sorted.
func (s *Store) Publishers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[string]struct{})
	for i := range s.records {
		set[s.records[i].Publisher] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TotalViewHours sums view-hours over the whole store.
func (s *Store) TotalViewHours() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0.0
	for i := range s.records {
		total += s.records[i].ViewHours()
	}
	return total
}
