package obs

// Stopwatch is the latency-SLO instrumentation primitive: one clock
// read at the start of an interval, one at the end, and an Observe
// into whichever histogram the end of the interval picks (the ingest
// ack path, for example, chooses the wire- or JSONL-encoding histogram
// only after the body has been decoded). It is a small value, not a
// pointer — starting and stopping a stopwatch allocates nothing on
// either path, and the disabled form (a nil clock) reduces Start and
// Stop to a single nil check, which is what keeps instrumented-but-
// disabled daemons inside the PR-5 overhead budget.

import (
	"time"

	"vmp/internal/simclock"
)

// Stopwatch measures one latency interval. The zero Stopwatch is the
// disabled one: Stop on it reads no clock, observes nothing, and
// returns 0.
type Stopwatch struct {
	clock simclock.Clock
	start time.Time
}

// StartWatch reads clock once and returns a running stopwatch. A nil
// clock returns the zero (disabled) Stopwatch.
func StartWatch(clock simclock.Clock) Stopwatch {
	if clock == nil {
		return Stopwatch{}
	}
	return Stopwatch{clock: clock, start: clock.Now()}
}

// Stop ends the interval, observes it in seconds into h (skipped when
// h is nil), and returns the measured duration. On the zero Stopwatch
// it is a no-op returning 0.
func (w Stopwatch) Stop(h *Histogram) time.Duration {
	if w.clock == nil {
		return 0
	}
	d := w.clock.Now().Sub(w.start)
	if h != nil {
		h.Observe(d.Seconds())
	}
	return d
}
