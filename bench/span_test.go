package main

import (
	"context"
	"testing"
	"time"

	"vmp/internal/simclock"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		// A request of 100 ns with three direct children: two that
		// overlap each other ([10,40] ∪ [30,60] covers 50 ns) and one
		// apart ([70,90], 20 ns). Self time = 100 − 70 = 30.
		{Name: "handler", Start: 0, End: 100, ID: 1},
		{Name: "decode", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "admit", Start: 30, End: 60, ID: 3, Parent: 1},
		{Name: "respond", Start: 70, End: 90, ID: 4, Parent: 1},
		// A grandchild is its parent's business, not the root's:
		// admit's self time is 30 − 20 = 10, the handler's is unchanged.
		{Name: "append", Start: 35, End: 55, ID: 5, Parent: 3},
		// A child that outlives its parent is clipped to it: only
		// [180,200] of [180,250] counts against this handler.
		{Name: "handler", Start: 100, End: 200, ID: 6},
		{Name: "respond", Start: 180, End: 250, ID: 7, Parent: 6},
	}
	stats := selfTimes(spans)
	for _, c := range []struct {
		name        string
		count       int
		total, self time.Duration
	}{
		{"handler", 2, 200, 30 + 80},
		{"decode", 1, 30, 30},
		{"admit", 1, 30, 10},
		{"append", 1, 20, 20},
		{"respond", 2, 20 + 70, 20 + 70},
	} {
		st := stats[c.name]
		if st == nil {
			t.Fatalf("no stats for %s", c.name)
		}
		if st.Count != c.count || st.Total != c.total || st.Self != c.self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d", c.name, st.Count, st.Total, st.Self, c.count, c.total, c.self)
		}
	}
}

func TestRecorderLinksRequestAndIsInertWhenNil(t *testing.T) {
	clk := simclock.NewManual(simclock.StudyStart)
	clk.SetAutoAdvance(time.Millisecond)
	rec := newRecorder(clk)
	root := rec.start("handler", 0, 0)
	child := rec.start("decode", root.id, root.req)
	child.end()
	root.end()
	spans := rec.take()
	if len(spans) != 2 || spans[0].Name != "decode" || spans[1].Name != "handler" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Parent != spans[1].ID || spans[0].Req != spans[1].ID || spans[1].Req != spans[1].ID {
		t.Errorf("child not linked to its request: %+v", spans)
	}
	if d := spans[0].End - spans[0].Start; d != int64(time.Millisecond) {
		t.Errorf("child lasted %d ns on a clock that steps 1 ms per read", d)
	}
	if len(rec.take()) != 0 {
		t.Error("take did not forget the spans")
	}

	var off *recorder
	sp := off.start("anything", 0, 0)
	sp.end()
	if sp.id != 0 || off.take() != nil {
		t.Error("a nil recorder recorded something")
	}
}

// The open loop schedules request i at start + i·every whatever earlier
// requests cost, times each request from its due time, and reports how
// late it ran. A manual clock plays both the schedule and the service.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := simclock.NewManual(simclock.StudyStart)
	wait := func(_ context.Context, d time.Duration) error {
		clk.Advance(d)
		return nil
	}
	const every = 10 * time.Millisecond
	service := []time.Duration{25, 5, 2, 2, 2} // ms; the first request stalls
	var latency, sentLate []time.Duration
	maxLate, err := openLoop(context.Background(), clk, wait, every, len(service), func(i int, due time.Time) error {
		sentLate = append(sentLate, clk.Now().Sub(due))
		clk.Advance(service[i] * time.Millisecond)
		latency = append(latency, clk.Now().Sub(due))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Request 1 was due at 10 ms but the stall held the connection
	// until 25 ms: it is sent 15 ms late and its latency includes that
	// wait. Request 2 (due at 20) goes out at 30, 10 ms late. By
	// request 3 (due at 30, previous done at 32) the generator is 2 ms
	// late, and request 4 is on time again.
	ms := time.Millisecond
	wantLate := []time.Duration{0, 15 * ms, 10 * ms, 2 * ms, 0}
	wantLatency := []time.Duration{25 * ms, 20 * ms, 12 * ms, 4 * ms, 2 * ms}
	for i := range service {
		if sentLate[i] != wantLate[i] || latency[i] != wantLatency[i] {
			t.Errorf("request %d: sent %v late with latency %v, want %v and %v", i, sentLate[i], latency[i], wantLate[i], wantLatency[i])
		}
	}
	if maxLate != 15*ms {
		t.Errorf("max lateness = %v, want 15ms", maxLate)
	}
}

func TestOpenLoopStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := openLoop(ctx, simclock.Wall(), simclock.Wait, time.Hour, 3, func(int, time.Time) error {
		calls++
		cancel()
		return nil
	})
	if err == nil || calls != 1 {
		t.Errorf("openLoop ran %d requests and returned %v after cancel", calls, err)
	}
}
