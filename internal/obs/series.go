package obs

// This file is the in-process time series — the flight recorder of the
// self-measurement plane. A SeriesRing holds the last N periodic
// registry snapshots in a bounded lock-free ring (the same
// publish-whole-records-behind-atomic-pointers discipline as the trace
// rings in trace.go), and its snapshot derives per-second rates
// between consecutive retained points plus per-histogram quantiles, so
// /v1/series answers "what has the daemon been doing for the last N
// minutes" without any external scraper having run. Under a
// simclock.ManualClock a fixed record sequence renders byte-identical
// JSON: points sort by sequence, every map serializes with sorted
// keys, and timestamps render RFC3339Nano UTC.

import (
	"sort"
	"sync/atomic"
	"time"
)

// seriesSample is one recorded registry snapshot, immutable after
// Store. The snapshot's maps are freshly built by Registry.Snapshot
// and never mutated after publication.
type seriesSample struct {
	seq  uint64
	at   time.Time
	snap Snapshot
}

// SeriesRing is a bounded lock-free ring of periodic registry
// snapshots. Record is safe for concurrent use with Snapshot: each
// sample is published whole behind an atomic pointer, and the sequence
// number is monotonic for the ring's lifetime, so a consumer can
// detect wrapped-away points the way a WAL reader detects a truncated
// prefix.
type SeriesRing struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[seriesSample]
}

// NewSeriesRing returns a ring retaining capacity points (values < 1
// default to 256).
func NewSeriesRing(capacity int) *SeriesRing {
	if capacity < 1 {
		capacity = 256
	}
	return &SeriesRing{slots: make([]atomic.Pointer[seriesSample], capacity)}
}

// Record appends one timestamped registry snapshot, overwriting the
// oldest point once the ring is full. The caller must not mutate
// snap's maps after the call (Registry.Snapshot returns fresh ones).
func (s *SeriesRing) Record(at time.Time, snap Snapshot) {
	rec := &seriesSample{seq: s.seq.Add(1), at: at, snap: snap}
	s.slots[(rec.seq-1)%uint64(len(s.slots))].Store(rec)
}

// SeriesHist is one histogram's reading at one series point: the
// cumulative count and sum plus the interpolated SLO quantiles.
type SeriesHist struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// SeriesPoint is one retained sample in the /v1/series payload. Rates
// holds per-second deltas of every counter present in both this point
// and the previous retained one; the oldest retained point has none.
type SeriesPoint struct {
	Seq      uint64                `json:"seq"`
	Time     string                `json:"time"`
	Counters map[string]int64      `json:"counters"`
	Gauges   map[string]int64      `json:"gauges"`
	Rates    map[string]float64    `json:"rates,omitempty"`
	Hists    map[string]SeriesHist `json:"hists,omitempty"`
}

// SeriesSnapshot is the /v1/series payload. SamplesTotal is a lifetime
// counter; when it exceeds Capacity the ring has wrapped and only the
// most recent points are retained.
type SeriesSnapshot struct {
	SamplesTotal uint64        `json:"samples_total"`
	Capacity     int           `json:"capacity"`
	Points       []SeriesPoint `json:"points"`
}

// Snapshot reads the ring: retained points sorted by sequence, rates
// derived between consecutive points, quantiles interpolated per
// histogram. Concurrent Records may land between slot reads; each
// retained sample is individually complete.
func (s *SeriesRing) Snapshot() SeriesSnapshot {
	out := SeriesSnapshot{
		SamplesTotal: s.seq.Load(),
		Capacity:     len(s.slots),
		Points:       []SeriesPoint{},
	}
	var recs []*seriesSample
	for i := range s.slots {
		if r := s.slots[i].Load(); r != nil {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for i, r := range recs {
		p := SeriesPoint{
			Seq:      r.seq,
			Time:     traceTime(r.at),
			Counters: r.snap.Counters,
			Gauges:   r.snap.Gauges,
		}
		if len(r.snap.Histograms) > 0 {
			p.Hists = make(map[string]SeriesHist, len(r.snap.Histograms))
			for name, h := range r.snap.Histograms {
				p.Hists[name] = SeriesHist{
					Count: h.Count,
					Sum:   h.Sum,
					P50:   h.Quantile(0.50),
					P90:   h.Quantile(0.90),
					P99:   h.Quantile(0.99),
					P999:  h.Quantile(0.999),
				}
			}
		}
		if i > 0 {
			p.Rates = counterRates(recs[i-1], r)
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// counterRates derives per-second rates for every counter present in
// both samples. A non-positive time delta (possible under a manual
// clock that was never advanced) or a counter reset yields no rate for
// that pair — a missing key is honest, a negative rate is noise.
func counterRates(prev, cur *seriesSample) map[string]float64 {
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return nil
	}
	var rates map[string]float64
	for name, n := range cur.snap.Counters {
		old, ok := prev.snap.Counters[name]
		if !ok {
			continue
		}
		delta := n - old
		if delta < 0 {
			continue
		}
		if rates == nil {
			rates = make(map[string]float64, len(cur.snap.Counters))
		}
		rates[name] = float64(delta) / dt
	}
	return rates
}
