// Package live is the serving plane of the reproduction: the
// always-on backend the paper's management plane runs as, layered on
// the frozen columnar telemetry.Dataset.
//
// Admitted batches are copied, under the admission lock, into
// engine-owned slabs, and their place there appended to a pending list
// the next epoch cut takes. Admission is explicit: a batch that
// finds the un-cut backlog at its ceiling (Config.QueueDepth) is
// rejected whole with a retry-after hint and counted — never silently
// dropped, never partially applied — and only a cut makes room.
//
// An epoch cut (Snapshot; Run makes them on a cadence) takes the
// pending batches, merges the new records with the previous
// generation, and publishes an immutable Generation (epoch number +
// frozen Dataset) behind an atomic pointer. Readers load the pointer
// and run PR 1's analytics over a consistent view that never changes
// after publication; writers keep appending to the next epoch. There
// is no lock shared between the query path and the append path, and
// the engine starts no goroutine of its own.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("live: engine closed")

// WAL is the durability hook the engine drives — satisfied by
// *wal.Log. AppendBatch persists an admitted batch before it joins the
// pending list. The engine hands it over as a one-element parts vector
// (the signature dates from a partitioned engine), valid only for the
// call; a hook with AppendFrames (frameAppender) gets a binary POST's
// frames instead, however many view records they hold. An error means
// the batch must be rejected whole (the handler returns 503 and the
// client retries), so acknowledgement implies the WAL has the records.
// Bounds reports the last sequence appended, as a vector the engine
// only carries from Bounds to Commit (*wal.Log's has one element); the
// engine reads it under the same admission lock it takes the pending
// batches under, making the reading exact. Commit hands a
// freshly published generation back so the WAL can checkpoint it and
// truncate the segments it covers; a Commit error is counted, not
// fatal — the WAL keeps growing but loses nothing. A hook with
// CommitRows (rowsCommitter) gets the generation's records a chunk at a
// time instead, and only if it writes a checkpoint.
type WAL interface {
	AppendBatch(parts [][]telemetry.ViewRecord, parent obs.SpanID) error
	Bounds() []uint64
	Commit(epoch int64, records []telemetry.ViewRecord, bounds []uint64, parent obs.SpanID) error
}

// Config parameterizes an Engine. The zero value gets sensible
// defaults: a backlog ceiling of 64 full batches, 5 s epochs, 500 ms
// retry-after, the wall clock, a fresh metrics registry, and a
// *disabled* tracer — tracing costs one atomic load per instrumentation
// site until a daemon opts in by supplying an enabled obs.Tracer.
// Shards and BatchMax are kept only because the benchmark module still
// sets them.
type Config struct {
	Shards     int             // ignored: there is one pending list
	QueueDepth int             // un-cut backlog ceiling, in batches of recordsPerBatch
	BatchMax   int             // ignored: nothing coalesces
	EpochEvery time.Duration   // snapshot cadence used by Run
	RetryAfter time.Duration   // hint returned with a backpressure rejection
	Clock      simclock.Clock  // time source (inject a manual clock in tests)
	Metrics    *obs.Registry   // metrics destination
	Trace      *obs.Tracer     // span/event destination (nil = disabled)
	Series     *obs.SeriesRing // in-process time series served at /v1/series (nil = empty)
	WAL        WAL             // durability hook (nil = no WAL)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.EpochEvery <= 0 {
		c.EpochEvery = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = simclock.Wall()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Trace == nil {
		t := obs.NewTracer(c.Clock, 256)
		t.SetEnabled(false)
		c.Trace = t
	}
	return c
}

// Generation is one published epoch: an immutable dataset plus its
// provenance. A Generation never changes after publication — re-running
// a query against a retained Generation returns byte-identical output.
type Generation struct {
	Epoch   int64
	Records int
	Created time.Time
	Dataset *telemetry.Dataset
}

// recordsPerBatch is QueueDepth's unit: a ceiling of N is
// N×recordsPerBatch view records waiting for a cut. It is also the most
// view records the WAL encodes into one log record; a larger batch
// spans several, and a binary POST's frames are logged as one record
// whatever their count.
const recordsPerBatch = 1 << 14

// slabRows is how many rows one admission slab holds. A ViewRecord is
// 328 bytes, so a slab is 1,024 × 328 = 335,872 B: exactly 41 pages of
// 8 KiB, and the allocator, which rounds a large object up to whole
// pages, adds nothing to it (TestSlabsAreFullAndPageExact).
const slabRows = 1 << 10

// Engine is the live serving engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	clock  simclock.Clock
	tracer *obs.Tracer

	// ingestMu serializes admission: held across the ceiling check, the
	// WAL append and the copy into the open slab, it makes admission
	// atomic — a batch is logged and pending or rejected whole, so
	// retries never duplicate records. It also serializes admission
	// against the epoch cut: Snapshot holds it across the WAL bounds
	// reading and the pending take, so a generation contains exactly the
	// records at or below the bounds it commits.
	ingestMu sync.Mutex
	closed   bool                      // guarded by ingestMu
	wal      WAL                       // guarded by ingestMu; nil when durability is off
	walParts [1][]telemetry.ViewRecord // guarded by ingestMu; AppendBatch's argument
	// slab is the open admission slab: the rows admitted into it so far,
	// then room for slabRows in all. A row is written once, by keep, and
	// never again: a cut that takes the slab's head leaves the slab open,
	// and later batches fill its tail.
	slab []telemetry.ViewRecord // guarded by ingestMu
	// pending holds where the admitted records lie — one sub-slice of a
	// slab per batch and slab, reaching to the slab's end, which nothing
	// appends to — until the next cut takes them; batches counts the
	// batches they came in and uncut their records, against the ceiling.
	pending [][]telemetry.ViewRecord // guarded by ingestMu
	batches int                      // guarded by ingestMu
	uncut   int                      // guarded by ingestMu

	// snapMu serializes epoch cuts; stopped is set by Close's, after
	// which Snapshot cuts nothing.
	snapMu  sync.Mutex
	stopped bool // guarded by snapMu

	gen atomic.Pointer[Generation]

	ingested      *obs.Counter
	backpressured *obs.Counter
	walErrors     *obs.Counter
	snapshots     *obs.Counter
	batchSizes    *obs.Histogram
	snapLatency   *obs.Histogram
	queueDepth    *obs.Gauge
	genRecords    *obs.Gauge
	genEpoch      *obs.Gauge
	genAgeMS      *obs.Gauge
}

// NewEngine returns an engine with an empty generation published, so
// queries are serveable immediately. It starts no goroutine: cuts
// happen when someone calls Snapshot (or runs Run). Call Close to cut
// the final epoch and refuse further batches.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:           cfg,
		clock:         cfg.Clock,
		tracer:        cfg.Trace,
		wal:           cfg.WAL,
		ingested:      cfg.Metrics.Counter("live_ingest_records_total"),
		backpressured: cfg.Metrics.Counter("live_ingest_backpressured_total"),
		walErrors:     cfg.Metrics.Counter("live_wal_errors_total"),
		snapshots:     cfg.Metrics.Counter("live_snapshots_total"),
		batchSizes:    cfg.Metrics.Histogram("live_append_batch_records", []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
		snapLatency:   cfg.Metrics.Histogram("live_snapshot_seconds", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		queueDepth:    cfg.Metrics.Gauge("live_queue_depth_batches"),
		genRecords:    cfg.Metrics.Gauge("live_generation_records"),
		genEpoch:      cfg.Metrics.Gauge("live_generation_epoch"),
		genAgeMS:      cfg.Metrics.Gauge("live_generation_age_ms"),
	}
	e.gen.Store(&Generation{Epoch: 0, Created: e.clock.Now(), Dataset: telemetry.NewDataset(nil)})
	return e
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *obs.Registry { return e.cfg.Metrics }

// Tracer returns the engine's span/event sink (disabled unless the
// config supplied an enabled one).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Series returns the configured in-process time series ring, nil when
// the daemon did not opt into self-measurement sampling.
func (e *Engine) Series() *obs.SeriesRing { return e.cfg.Series }

// PublishGauges refreshes the published generation's epoch, record
// count, and age in the engine's registry. It is the engine's
// obs.Sampler source — called on the sampling cadence so every series
// point and every scrape carries current levels, not just the values
// last touched by a snapshot. The depth gauge (batches pending the
// next cut) is written where the pending list changes, so sampling
// never waits on the admission lock an fsync may hold.
func (e *Engine) PublishGauges() {
	g := e.gen.Load()
	e.genEpoch.Set(g.Epoch)
	e.genRecords.Set(int64(g.Records))
	e.genAgeMS.Set(e.clock.Now().Sub(g.Created).Milliseconds())
}

// AttachWAL installs (or removes, with nil) the durability hook. The
// boot sequence uses it to replay a WAL through Ingest *before*
// attaching it, so replayed records are not appended back to the log
// they came from.
func (e *Engine) AttachWAL(w WAL) {
	e.ingestMu.Lock()
	e.wal = w
	e.ingestMu.Unlock()
}

// Generation returns the currently published generation. The result is
// immutable; callers may retain it across epochs.
func (e *Engine) Generation() *Generation { return e.gen.Load() }

// Result reports what happened to one Ingest batch.
type Result struct {
	Accepted      int
	Backpressured int           // rejected at the backlog ceiling (whole batch)
	RetryAfter    time.Duration // when to retry, if backpressured
}

// Ingest admits a batch into the pending list. Admission is atomic: if
// the records not yet cut into a generation are already at or past the
// ceiling (QueueDepth × recordsPerBatch), the whole batch is rejected
// with Backpressured set and a RetryAfter hint, and no record is kept —
// the caller retries the identical batch without duplication. The
// check precedes the append, so a batch of any size gets in once there
// is room, and only a cut (Snapshot) makes room. Ingest never waits for
// room and never blocks queries. The engine keeps its own copy of an
// accepted recs, in its slabs; the caller may reuse the slice once
// Ingest returns.
func (e *Engine) Ingest(recs []telemetry.ViewRecord) (Result, error) {
	return e.IngestSpan(recs, 0)
}

// IngestSpan is Ingest with a trace parent: the admission span links
// under parent, so an HTTP handler's batch span owns the whole
// per-stage decomposition (scan → admit ⊃ wal.append). With tracing
// disabled it is exactly Ingest.
func (e *Engine) IngestSpan(recs []telemetry.ViewRecord, parent obs.SpanID) (Result, error) {
	return e.IngestFrames(recs, nil, parent)
}

// frameAppender is a WAL that can log a batch as its frames (*wal.Log).
type frameAppender interface {
	AppendFrames([]byte, int64, obs.SpanID) error
}

// IngestFrames is IngestSpan for recs decoded from frames (a wire
// binary stream, wire.Decoder.Frames), which a frameAppender WAL logs
// as they are rather than encode recs under the admission lock. recs is
// read only until it returns: an accepted batch is copied into the
// engine's slabs (keep), under the admission lock and after the WAL
// append, so a refused or failed batch costs no copy at all.
func (e *Engine) IngestFrames(recs []telemetry.ViewRecord, frames []byte, parent obs.SpanID) (Result, error) {
	if len(recs) == 0 {
		return Result{}, nil
	}
	sp := e.tracer.Start("ingest.admit", parent)
	n := int64(len(recs))
	e.ingestMu.Lock()
	if e.closed {
		e.ingestMu.Unlock()
		sp.End(obs.KV("records", n), obs.KV("closed", 1))
		return Result{}, ErrClosed
	}
	if e.uncut >= e.cfg.QueueDepth*recordsPerBatch {
		e.ingestMu.Unlock()
		e.backpressured.Add(n)
		sp.End(obs.KV("records", n), obs.KV("backpressured", n))
		return Result{Backpressured: len(recs), RetryAfter: e.cfg.RetryAfter}, nil
	}
	if e.wal != nil {
		// Durability precedes acknowledgement: the batch reaches the
		// WAL (written and fsynced) before it is pending. An
		// append failure rejects the batch whole — nothing was kept, so
		// the client's retry is exact.
		var err error
		if fa, ok := e.wal.(frameAppender); ok && frames != nil {
			err = fa.AppendFrames(frames, n, sp.ID())
		} else {
			e.walParts[0] = recs
			err = e.wal.AppendBatch(e.walParts[:], sp.ID())
			e.walParts[0] = nil
		}
		if err != nil {
			e.ingestMu.Unlock()
			e.walErrors.Add(1)
			sp.End(obs.KV("records", n), obs.KV("wal_error", 1))
			return Result{}, fmt.Errorf("live: wal append: %w", err)
		}
	}
	e.keep(recs)
	e.batches++
	e.uncut += len(recs)
	e.queueDepth.Set(int64(e.batches))
	e.ingestMu.Unlock()
	e.ingested.Add(n)
	e.batchSizes.Observe(float64(n))
	sp.End(obs.KV("records", n))
	return Result{Accepted: len(recs)}, nil
}

// keep is the one copy the engine owes its caller (an HTTP handler's
// recs are decoder scratch): it copies recs into the open slab, opening
// a new one each time it fills, and appends each piece to the pending
// list. The caller holds ingestMu.
func (e *Engine) keep(recs []telemetry.ViewRecord) {
	for len(recs) > 0 {
		if len(e.slab) == cap(e.slab) {
			e.slab = make([]telemetry.ViewRecord, 0, slabRows)
		}
		at := len(e.slab)
		e.slab = append(e.slab, recs[:min(len(recs), cap(e.slab)-at)]...)
		e.pending = append(e.pending, e.slab[at:])
		recs = recs[len(e.slab)-at:]
	}
}

// Snapshot cuts an epoch: it takes the pending batches, sorts pointers
// to their records canonically, merges those into the published
// generation's Dataset, and publishes the result. Only the new records
// are compared, hashed and interned, and no row is copied: the new
// generation points at the published rows, and at the new ones in the
// slabs admission copied them into. Records admitted before Snapshot is
// called are always included; records racing with it land in this
// epoch or the next.
// After Close it cuts nothing and returns the final generation.
func (e *Engine) Snapshot() *Generation { return e.cut(false) }

// cut is Snapshot; Close's cut is the final one.
func (e *Engine) cut(final bool) *Generation {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if e.stopped {
		return e.gen.Load()
	}
	e.stopped = final
	prev := e.gen.Load()
	start := e.clock.Now()
	sp := e.tracer.Start("epoch.cut", 0)
	fsp := e.tracer.Start("epoch.flush", sp.ID())
	// Admission is held off across the bounds reading and the pending
	// take: the generation cut here contains exactly the records at or
	// below the WAL bounds — nothing admitted later can leak into it —
	// which is what makes the Commit truncation and a post-crash replay
	// reconstruct this generation, no more, no less.
	e.ingestMu.Lock()
	w := e.wal
	var bounds []uint64
	if w != nil {
		bounds = w.Bounds()
	}
	batches, n := e.pending, e.uncut
	e.pending, e.batches, e.uncut = nil, 0, 0
	e.queueDepth.Set(0)
	e.ingestMu.Unlock()
	// Every stage span of the cut carries the same two sizes, so a
	// trace shows which stage's time follows which.
	sizes := []obs.Attr{obs.KV("delta", int64(n)), obs.KV("records", int64(prev.Records+n))}
	fsp.End(sizes...)
	ssp := e.tracer.Start("epoch.sort", sp.ID())
	// Canonical order, not arrival order: the same record set produces
	// the same generation — and byte-identical query answers — no
	// matter how ingestion interleaved. Gather sorts keys and returns
	// pointers to the rows where admission put them; the first cut's
	// Merge adopts its slice as the generation's ref.
	delta := telemetry.Gather(batches)
	ssp.End(sizes...)
	msp := e.tracer.Start("epoch.merge", sp.ID())
	ds := prev.Dataset.Merge(delta)
	msp.End(sizes...)
	g := &Generation{
		Epoch:   prev.Epoch + 1,
		Records: ds.Len(),
		Created: start,
		Dataset: ds,
	}
	e.gen.Store(g)
	e.snapshots.Add(1)
	e.genRecords.Set(int64(ds.Len()))
	e.genEpoch.Set(g.Epoch)
	e.genAgeMS.Set(0)
	e.snapLatency.Observe(e.clock.Now().Sub(start).Seconds())
	if w != nil {
		e.checkpoint(w, g, bounds, sp.ID(), sizes)
	}
	sp.End(obs.KV("epoch", g.Epoch), obs.KV("records", int64(g.Records)))
	return g
}

// rowsCommitter is a WAL that takes a generation's records as their
// number and a func that copies a chunk of them into a buffer it
// supplies, called only when it writes a checkpoint (*wal.Log). A
// Dataset's All copies every row, and most commits write nothing.
type rowsCommitter interface {
	CommitRows(epoch int64, n int, fill func(dst []telemetry.ViewRecord, lo int), bounds []uint64, parent obs.SpanID) error
}

// checkpointCounter is implemented by a WAL that can tell how many
// checkpoints it has written (*wal.Log does). Commit reports only
// failure, and most commits write nothing — the log has to earn a
// checkpoint — so the count is how the epoch.checkpoint span knows
// which kind it timed.
type checkpointCounter interface{ Checkpoints() int64 }

// checkpoint hands the published generation to the WAL under an
// epoch.checkpoint span. A failed commit is counted, and ends the span
// with error=1, but is not fatal: the WAL keeps its segments and the
// previous checkpoint, so it grows but loses nothing.
func (e *Engine) checkpoint(w WAL, g *Generation, bounds []uint64, parent obs.SpanID, sizes []obs.Attr) {
	sp := e.tracer.Start("epoch.checkpoint", parent)
	cc, counts := w.(checkpointCounter)
	before := int64(0)
	if counts {
		before = cc.Checkpoints()
	}
	sizes = sizes[:len(sizes):len(sizes)] // full, so an append copies instead of writing into the caller's array
	var err error
	if rc, ok := w.(rowsCommitter); ok {
		ds := g.Dataset
		err = rc.CommitRows(g.Epoch, ds.Len(), func(dst []telemetry.ViewRecord, lo int) {
			for k := range dst {
				dst[k] = *ds.Record(lo + k)
			}
		}, bounds, sp.ID())
	} else {
		err = w.Commit(g.Epoch, g.Dataset.All(), bounds, sp.ID())
	}
	if err != nil {
		e.walErrors.Add(1)
		sizes = append(sizes, obs.KV("error", 1))
	}
	if counts {
		sizes = append(sizes, obs.KV("written", cc.Checkpoints()-before))
	}
	sp.End(sizes...)
}

// Run snapshots on the configured cadence until ctx is done. The
// ticker is operational heartbeat, not study time, so the real ticker
// is correct here; determinism-sensitive callers drive Snapshot
// directly instead.
func (e *Engine) Run(ctx context.Context) {
	tick := time.NewTicker(e.cfg.EpochEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			e.Snapshot()
		}
	}
}

// Close stops the engine: no further batches are admitted, and
// everything already admitted is cut into a final published
// generation. Close is idempotent and returns the final generation.
func (e *Engine) Close() *Generation {
	e.ingestMu.Lock()
	e.closed = true
	e.ingestMu.Unlock()
	return e.cut(true)
}
