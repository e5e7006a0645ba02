package simclock

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts "what time is it now" for the operational plane: the
// live serving daemons need real time for epoch cadences, retry-after
// hints, and latency measurement, while their tests need a time source
// they control. Study code never uses a Clock — figures take time from
// the simulated schedule above — but serving code takes one by
// injection, which keeps the determinism contract intact: the only
// wall-clock read in the module lives here, in the package that owns
// time, and the nondet-* rows of docs/mutants.md name the tests that
// catch one anywhere else.
type Clock interface {
	// Now returns the current instant. Wall clocks return readings
	// carrying Go's monotonic component, so Sub on two readings is a
	// safe duration measurement.
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Wall returns the process wall clock. This is the one sanctioned
// wall-clock source in the module; hand it to daemons at their
// entry points and inject a Manual clock everywhere in tests.
func Wall() Clock { return wallClock{} }

// Wait blocks for d or until ctx is done, whichever comes first, and
// reports ctx.Err() in the latter case. It is the module's sanctioned
// replacement for time.Sleep: a bare sleep can be neither cancelled
// nor observed (wire.TestClientSendStopsWhenCancelled catches one in
// the client's backoff), while Wait lets shutdown interrupt retry
// backoffs and drains immediately.
func Wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ManualClock is a Clock whose time only moves when the test advances
// it — explicitly via Advance, or implicitly via SetAutoAdvance. It is
// safe for concurrent use.
type ManualClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewManual returns a manual clock frozen at start.
func NewManual(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current instant, then steps the clock by
// the auto-advance amount (zero unless SetAutoAdvance was called).
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

// SetAutoAdvance makes every subsequent Now advance the clock by d
// after reading it. Tests of the tracing layer use this to get
// deterministic *nonzero* span durations from a fixed call sequence:
// each clock read lands exactly d after the previous one, so a
// repeated run produces byte-identical trace output. d <= 0 disables
// auto-advance.
func (c *ManualClock) SetAutoAdvance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	c.step = d
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
