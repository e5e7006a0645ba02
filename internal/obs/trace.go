package obs

// This file is the request/batch-scoped half of the observability
// substrate: lightweight spans with parent links, appended lock-free
// into a bounded ring. Metrics (obs.go) answer "how much, how fast, in
// aggregate"; spans answer "where did THIS batch spend its time" —
// admission, WAL append, epoch flush, sort, merge, checkpoint — and
// their attributes carry each stage's outcome (records admitted,
// backpressured, a WAL error, the epoch a cut published).
//
// The contracts the serving plane relies on:
//
//   - Disabled tracing is free on the hot path: Start reduces to one
//     atomic load and allocates nothing (the variadic attr slice of End
//     never escapes, so call sites keep it on the stack).
//   - Appends are lock-free and safe under -race: a completed span is a
//     fully built record published into its ring slot with one
//     atomic.Pointer.Store, never mutated afterwards.
//   - Snapshots are deterministic: spans sort by ID, per-stage
//     aggregates by name, and every map in the JSON form serializes
//     with sorted keys — under a simclock.ManualClock a repeated run
//     renders byte-identical trace JSON.

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"vmp/internal/simclock"
)

// SpanID identifies a span within one Tracer; 0 means "no parent".
type SpanID uint64

// Attr is one integer-valued span attribute (record counts,
// epoch numbers, byte sizes — the vocabulary of this pipeline is
// counts, so attributes are int64 and stay allocation-free).
type Attr struct {
	Key string
	Val int64
}

// KV builds an attribute.
func KV(key string, val int64) Attr { return Attr{Key: key, Val: val} }

// spanRecord is a completed span as published into the ring. It is
// immutable after Store.
type spanRecord struct {
	id     uint64
	parent uint64
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Tracer is the span sink. All methods are safe for concurrent use and
// safe on a nil receiver (a nil Tracer is a disabled one), so
// instrumented code never branches on "is tracing configured".
type Tracer struct {
	clock   simclock.Clock
	enabled atomic.Bool
	spanSeq atomic.Uint64 // span IDs, assigned at Start
	spanIdx atomic.Uint64 // ring write cursor, advanced at End
	spans   []atomic.Pointer[spanRecord]
}

// NewTracer returns an enabled tracer timed by clock (nil means the
// wall clock) whose span ring holds capacity entries (values < 1
// default to 1024). Use SetEnabled(false) for a tracer that keeps the
// endpoints mountable but records nothing.
func NewTracer(clock simclock.Clock, capacity int) *Tracer {
	if clock == nil {
		clock = simclock.Wall()
	}
	if capacity < 1 {
		capacity = 1024
	}
	t := &Tracer{
		clock: clock,
		spans: make([]atomic.Pointer[spanRecord], capacity),
	}
	t.enabled.Store(true)
	return t
}

// SetEnabled turns recording on or off. Disabling does not clear the
// ring; the snapshot keeps serving what was already captured.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Span is an open span handle. It is a small value, not a pointer:
// starting and ending a span allocates nothing until the completed
// record is published (and nothing at all when tracing is disabled,
// where the zero Span makes End a no-op).
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// ID returns the span's ID for parent links, 0 if tracing is off.
func (s Span) ID() SpanID { return SpanID(s.id) }

// Start opens a span. parent links it under an enclosing span (0 for
// a root). When the tracer is nil or disabled this is one atomic load
// and returns the zero Span.
func (t *Tracer) Start(name string, parent SpanID) Span {
	if t == nil || !t.enabled.Load() {
		return Span{}
	}
	return Span{
		tr:     t,
		id:     t.spanSeq.Add(1),
		parent: uint64(parent),
		name:   name,
		start:  t.clock.Now(),
	}
}

// End completes the span and publishes it into the ring. attrs are
// copied, so the caller's variadic slice never escapes.
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	rec := &spanRecord{
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		start:  s.start,
		dur:    s.tr.clock.Now().Sub(s.start),
	}
	if len(attrs) > 0 {
		rec.attrs = make([]Attr, len(attrs))
		copy(rec.attrs, attrs)
	}
	i := s.tr.spanIdx.Add(1) - 1
	s.tr.spans[i%uint64(len(s.tr.spans))].Store(rec)
}

// SpanJSON is one completed span in the /v1/trace payload.
type SpanJSON struct {
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  string           `json:"start"`
	DurUS  int64            `json:"dur_us"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// StageStat aggregates the retained spans of one stage name — the
// per-stage latency decomposition, computed over the ring at snapshot
// time rather than double-counted into histograms on the hot path.
type StageStat struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	SumUS int64  `json:"sum_us"`
	MinUS int64  `json:"min_us"`
	MaxUS int64  `json:"max_us"`
}

// TraceSnapshot is the /v1/trace payload. SpansTotal is a lifetime
// counter; when it exceeds len(Spans) the ring has wrapped and only the
// most recent spans are retained.
type TraceSnapshot struct {
	Enabled    bool        `json:"enabled"`
	SpansTotal uint64      `json:"spans_total"`
	Stages     []StageStat `json:"stages"`
	Spans      []SpanJSON  `json:"spans"`
}

// traceTime renders an instant the one canonical way.
func traceTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// attrMap converts copied attrs to the JSON form (map keys serialize
// sorted, which keeps the payload deterministic).
func attrMap(attrs []Attr) map[string]int64 {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]int64, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// Snapshot reads the ring. Concurrent appends may land between slot
// reads; each retained span is individually complete (published whole
// behind its atomic pointer). Spans sort by ID, stages by name. Safe on
// a nil tracer.
func (t *Tracer) Snapshot() TraceSnapshot {
	s := TraceSnapshot{
		Stages: []StageStat{},
		Spans:  []SpanJSON{},
	}
	if t == nil {
		return s
	}
	s.Enabled = t.enabled.Load()
	s.SpansTotal = t.spanIdx.Load()

	var recs []*spanRecord
	for i := range t.spans {
		if r := t.spans[i].Load(); r != nil {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	byStage := make(map[string]*StageStat, 8)
	var stageNames []string
	for _, r := range recs {
		us := r.dur.Microseconds()
		s.Spans = append(s.Spans, SpanJSON{
			ID:     r.id,
			Parent: r.parent,
			Name:   r.name,
			Start:  traceTime(r.start),
			DurUS:  us,
			Attrs:  attrMap(r.attrs),
		})
		st := byStage[r.name]
		if st == nil {
			st = &StageStat{Name: r.name, MinUS: us, MaxUS: us}
			byStage[r.name] = st
			stageNames = append(stageNames, r.name)
		}
		st.Count++
		st.SumUS += us
		if us < st.MinUS {
			st.MinUS = us
		}
		if us > st.MaxUS {
			st.MaxUS = us
		}
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		s.Stages = append(s.Stages, *byStage[name])
	}
	return s
}

// StageStats returns just the per-stage aggregates (the -stats table
// of cmd/vmpstudy), sorted by name.
func (t *Tracer) StageStats() []StageStat { return t.Snapshot().Stages }

// Mount registers the observability surface on mux — the substrate
// vmpd reports through:
//
//	GET /v1/metrics — registry snapshot (counters, gauges, histograms) as JSON
//	GET /metrics    — the same registry in Prometheus text exposition format
//	GET /v1/series  — the in-process time series (recent registry snapshots + rates)
//	GET /v1/trace   — recent spans, per-stage latency
//
// A nil series mounts an empty ring, so the endpoint shape is the same
// whether or not the daemon runs a Sampler.
func Mount(mux *http.ServeMux, reg *Registry, tr *Tracer, series *SeriesRing) {
	if series == nil {
		series = NewSeriesRing(1)
	}
	mux.Handle("/v1/metrics", getHandler("application/json", func() ([]byte, error) { return jsonLine(reg.Snapshot()) }))
	mux.Handle("/metrics", getHandler(ContentTypeProm, func() ([]byte, error) { return AppendProm(nil, reg.Snapshot()), nil }))
	mux.Handle("/v1/series", getHandler("application/json", func() ([]byte, error) { return jsonLine(series.Snapshot()) }))
	mux.Handle("/v1/trace", getHandler("application/json", func() ([]byte, error) { return jsonLine(tr.Snapshot()) }))
}

// getHandler serves what render returns, as contentType, on GET. Each
// request renders one snapshot to memory before a byte is written, so
// an encode failure is still a clean 500.
func getHandler(contentType string, render func() ([]byte, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		buf, err := render()
		if err != nil {
			http.Error(w, "encode error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(buf)
	})
}

// jsonLine renders v as one line of JSON.
func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}
