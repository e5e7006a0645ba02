package main

import (
	"sort"
	"sync"
	"time"

	"vmp/internal/simclock"
)

// span is one timed call into a layer, recorded by the bench around
// the layer's public functions. Start and End are nanoseconds since
// the recorder was created; Parent is the span that caused this one
// (0 = none) and Req groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// is the untraced run: every method is a no-op that never reads the
// clock, so the same workload code serves both kinds of run.
type recorder struct {
	clock simclock.Clock
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder(clock simclock.Clock) *recorder {
	return &recorder{clock: clock, epoch: clock.Now(), spans: make([]span, 0, 1<<16)}
}

// openSpan is a started span; end records it.
type openSpan struct {
	r      *recorder
	name   string
	start  time.Time
	id     uint64
	parent uint64
	req    uint64
}

// start opens a span. req 0 makes the new span the root of a request,
// identified by its own ID.
func (r *recorder) start(name string, parent, req uint64) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	if req == 0 {
		req = id
	}
	return openSpan{r: r, name: name, start: r.clock.Now(), id: id, parent: parent, req: req}
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	now := o.r.clock.Now()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, span{
		Name:   o.name,
		Start:  int64(o.start.Sub(o.r.epoch)),
		End:    int64(now.Sub(o.r.epoch)),
		ID:     o.id,
		Parent: o.parent,
		Req:    o.req,
	})
	o.r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// stageStat aggregates the spans of one name.
type stageStat struct {
	Count int
	Total time.Duration // Σ (End − Start)
	Self  time.Duration // Σ self time
}

// selfMS returns the mean self time per span in milliseconds.
func (s stageStat) selfMS() float64 {
	if s.Count == 0 {
		return 0
	}
	return ms(s.Self) / float64(s.Count)
}

// selfTimes folds spans into per-name aggregates. A span's self time
// is its duration minus the part of its interval that its direct
// children cover: children are clipped to the parent's interval and
// overlapping children are counted once.
func selfTimes(spans []span) map[string]*stageStat {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	stats := make(map[string]*stageStat)
	for _, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &stageStat{}
			stats[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	return stats
}

// covered returns how many nanoseconds of parent's interval the union
// of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	hi := parent.Start
	for _, k := range kids {
		lo, end := k.Start, k.End
		if lo < hi {
			lo = hi
		}
		if end > parent.End {
			end = parent.End
		}
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}
