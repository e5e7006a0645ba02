package obs

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"vmp/internal/simclock"
)

// recordN drives n samples into the ring from a registry whose counter
// advances by 100 per sample and a clock advancing one second per
// sample, returning the clock for further use.
func recordN(ring *SeriesRing, n int) *simclock.ManualClock {
	clk := simclock.NewManual(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	reg := NewRegistry()
	c := reg.Counter("live_ingest_records_total")
	for i := 0; i < n; i++ {
		c.Add(100)
		ring.Record(clk.Now(), reg.Snapshot())
		clk.Advance(time.Second)
	}
	return clk
}

// TestSeriesRingWrap records past the ring's capacity and checks only
// the newest points survive, in sequence order, with the lifetime
// total intact.
func TestSeriesRingWrap(t *testing.T) {
	ring := NewSeriesRing(4)
	recordN(ring, 10)
	s := ring.Snapshot()
	if s.SamplesTotal != 10 || s.Capacity != 4 {
		t.Fatalf("totals = %d/%d, want 10/4", s.SamplesTotal, s.Capacity)
	}
	if len(s.Points) != 4 {
		t.Fatalf("retained %d points, want 4", len(s.Points))
	}
	for i, p := range s.Points {
		if want := uint64(7 + i); p.Seq != want {
			t.Fatalf("point %d seq = %d, want %d", i, p.Seq, want)
		}
	}
}

// TestSeriesRates checks the per-second derivation: +100 records per
// one-second step is a rate of 100/s on every point but the oldest.
func TestSeriesRates(t *testing.T) {
	ring := NewSeriesRing(8)
	recordN(ring, 3)
	s := ring.Snapshot()
	if len(s.Points) != 3 {
		t.Fatalf("retained %d points, want 3", len(s.Points))
	}
	if s.Points[0].Rates != nil {
		t.Fatalf("oldest point has rates: %v", s.Points[0].Rates)
	}
	for _, p := range s.Points[1:] {
		if got := p.Rates["live_ingest_records_total"]; got != 100 {
			t.Fatalf("seq %d rate = %v, want 100", p.Seq, got)
		}
	}
}

// TestSeriesRatesDegenerate pins the honesty cases: a zero time delta
// and a counter reset both yield no rate, never a garbage one.
func TestSeriesRatesDegenerate(t *testing.T) {
	ring := NewSeriesRing(8)
	reg := NewRegistry()
	c := reg.Counter("x_total")
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

	c.Add(5)
	ring.Record(at, reg.Snapshot())
	ring.Record(at, reg.Snapshot()) // same instant: dt = 0
	s := ring.Snapshot()
	if s.Points[1].Rates != nil {
		t.Fatalf("zero-dt point has rates: %v", s.Points[1].Rates)
	}

	// A "reset" (snapshot with a smaller value, as a restarted daemon
	// would produce) must not yield a negative rate.
	down := reg.Snapshot()
	down.Counters["x_total"] = 1
	ring.Record(at.Add(time.Second), down)
	s = ring.Snapshot()
	last := s.Points[len(s.Points)-1]
	if _, ok := last.Rates["x_total"]; ok {
		t.Fatalf("counter reset produced a rate: %v", last.Rates)
	}
}

// TestSeriesHistQuantiles checks histogram points carry the
// interpolated SLO quantiles.
func TestSeriesHistQuantiles(t *testing.T) {
	ring := NewSeriesRing(4)
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{1, 2})
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	ring.Record(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), reg.Snapshot())
	s := ring.Snapshot()
	sh, ok := s.Points[0].Hists["lat_seconds"]
	if !ok {
		t.Fatalf("histogram missing from point: %+v", s.Points[0])
	}
	if sh.Count != 100 || sh.P50 != 0.5 || sh.P99 != 0.99 {
		t.Fatalf("hist point = %+v", sh)
	}
}

// TestSeriesDeterministicJSON renders the same ring twice through the
// HTTP handler and expects byte-identical JSON — the determinism
// contract /v1/series inherits from the rest of the obs surface.
func TestSeriesDeterministicJSON(t *testing.T) {
	ring := NewSeriesRing(4)
	recordN(ring, 6)
	render := func() []byte {
		resp, body := serve(t, NewRegistry(), ring, "GET", "/v1/series")
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		return body
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Fatal("series payload differs between identical renders")
	}
	var snap SeriesSnapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatalf("payload not valid JSON: %v", err)
	}
	if snap.SamplesTotal != 6 || len(snap.Points) != 4 {
		t.Fatalf("round-trip = %d samples, %d points", snap.SamplesTotal, len(snap.Points))
	}
	if snap.Points[0].Time != "2016-01-01T00:00:02Z" {
		t.Fatalf("oldest retained time = %q", snap.Points[0].Time)
	}
}

// TestSeriesRecordDuringSnapshot exercises the lock-free ring under
// -race, as TestConcurrentTrace does the trace rings: a sample is
// published whole, so a reader that loads it races nothing the writer
// does afterwards. The writer keeps recording until the reader has
// taken 500 snapshots with points in them, so the two interleave
// however the scheduler runs them.
func TestSeriesRecordDuringSnapshot(t *testing.T) {
	ring := NewSeriesRing(8)
	var snapshots atomic.Int64
	records := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ; records < 200 || snapshots.Load() < 500; records++ {
			recordN(ring, 1)
		}
	}()
	for {
		select {
		case <-done:
			if s := ring.Snapshot(); s.SamplesTotal != uint64(records) || len(s.Points) != 8 {
				t.Fatalf("after %d records: %d samples, %d points", records, s.SamplesTotal, len(s.Points))
			}
			return
		default:
			points := ring.Snapshot().Points
			for _, p := range points {
				if p.Time == "" {
					t.Fatalf("point %d has no time", p.Seq)
				}
			}
			if len(points) > 0 {
				snapshots.Add(1)
			}
		}
	}
}

// TestSeriesHandlerMethod pins GET-only.
func TestSeriesHandlerMethod(t *testing.T) {
	if resp, _ := serve(t, NewRegistry(), NewSeriesRing(4), "POST", "/v1/series"); resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}
