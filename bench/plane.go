package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wal"
)

// The serving plane under test is wired like cmd/vmpd's defaults,
// except that nothing cuts epochs on a timer: the workloads call
// Engine.Snapshot themselves so every run cuts the same epochs.
const (
	planeShards      = 8
	planeQueueDepth  = 64
	planeBatchMax    = 4096
	planeTraceDepth  = 2048
	planeSeriesDepth = 600
	planeSampleEvery = time.Second
)

// plane is one booted serving plane: engine, optional WAL, sampler,
// and a real loopback listener in front of the HTTP handler.
type plane struct {
	engine  *live.Engine
	wlog    *wal.Log   // nil without a WAL
	wal     *tracedWAL // the span-recording hook of a traced run; nil otherwise
	sampler *obs.Sampler
	url     string

	srv        *http.Server
	served     chan error
	stopSample context.CancelFunc
	sampled    chan struct{}
}

// bootPlane starts an engine and serves it on 127.0.0.1:0. walDir ""
// runs without durability. With rec nil the handler is the production
// live.Server; with a recorder it is the traced mirror of it.
func bootPlane(walDir string, rec *recorder) (*plane, error) {
	clk := simclock.Wall()
	tracer := obs.NewTracer(clk, planeTraceDepth)
	tracer.SetEnabled(true)
	metrics := obs.NewRegistry()
	series := obs.NewSeriesRing(planeSeriesDepth)
	p := &plane{}
	p.engine = live.NewEngine(live.Config{
		Shards:     planeShards,
		QueueDepth: planeQueueDepth,
		BatchMax:   planeBatchMax,
		Clock:      clk,
		Metrics:    metrics,
		Trace:      tracer,
		Series:     series,
	})
	p.sampler = obs.NewSampler(metrics, series, clk, planeSampleEvery)
	p.sampler.AddSource(p.engine.PublishGauges)
	if walDir != "" {
		wlog, err := openWAL(walDir, metrics, tracer)
		if err != nil {
			p.engine.Close()
			return nil, err
		}
		p.wlog = wlog
		p.wal = attachWAL(p.engine, wlog, rec)
		p.sampler.AddSource(wlog.PublishGauges)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.closeEngine()
		return nil, fmt.Errorf("listen: %w", err)
	}
	handler := live.NewServer(p.engine).Handler()
	if rec != nil {
		handler = newTracedHandler(p.engine, rec, p.wal, handler)
	}
	p.url = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	p.served = make(chan error, 1)
	go func() { p.served <- p.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	p.stopSample = cancel
	p.sampled = make(chan struct{})
	go func() {
		defer close(p.sampled)
		p.sampler.Run(ctx)
	}()
	return p, nil
}

// openWAL opens a log with vmpd's durability defaults: batch fsync,
// 16 MiB segments, one log per engine shard.
func openWAL(dir string, metrics *obs.Registry, tracer *obs.Tracer) (*wal.Log, error) {
	return wal.Open(wal.Options{
		Dir:     dir,
		Shards:  planeShards,
		Policy:  wal.PolicyBatch,
		Clock:   simclock.Wall(),
		Metrics: metrics,
		Trace:   tracer,
	})
}

// close stops the listener, the sampler, the engine and the WAL, and
// waits for each.
func (p *plane) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	p.stopSample()
	<-p.sampled
	if cerr := p.closeEngine(); err == nil {
		err = cerr
	}
	return err
}

func (p *plane) closeEngine() error {
	p.engine.Close()
	if p.wlog != nil {
		return p.wlog.Close()
	}
	return nil
}

// attachWAL hands wlog to the engine: directly in an untraced run,
// behind a span-recording hook (which it returns) in a traced one.
func attachWAL(e *live.Engine, wlog *wal.Log, rec *recorder) *tracedWAL {
	if rec == nil {
		e.AttachWAL(wlog)
		return nil
	}
	w := &tracedWAL{inner: wlog, rec: rec}
	e.AttachWAL(w)
	return w
}

// ingestAll admits one batch in-process, waiting out backpressure the
// way vmpd's preload and WAL replay do.
func ingestAll(ctx context.Context, e *live.Engine, recs []telemetry.ViewRecord) error {
	for {
		res, err := e.Ingest(recs)
		if err != nil {
			return err
		}
		if res.Backpressured == 0 {
			return nil
		}
		if err := simclock.Wait(ctx, res.RetryAfter); err != nil {
			return err
		}
	}
}

// tracedWAL is the live.WAL hook a traced run hands to the engine. It
// delegates to the real log and records wal.append and wal.commit
// spans. The engine calls AppendBatch on the goroutine of the handler
// that is admitting (which holds the traced handler's admit lock) and
// Commit on the goroutine that called Snapshot, so the parent fields
// are each written and read by one goroutine at a time.
type tracedWAL struct {
	inner *wal.Log
	rec   *recorder

	admitParent, admitReq uint64 // set by the traced handler around IngestSpan
	cutParent             uint64 // set by cut() around Snapshot
}

func (w *tracedWAL) AppendBatch(parts [][]telemetry.ViewRecord, parent obs.SpanID) error {
	sp := w.rec.start("wal.append", w.admitParent, w.admitReq)
	err := w.inner.AppendBatch(parts, parent)
	sp.end()
	return err
}

func (w *tracedWAL) Bounds() []uint64 { return w.inner.Bounds() }

func (w *tracedWAL) Commit(epoch int64, records []telemetry.ViewRecord, bounds []uint64, parent obs.SpanID) error {
	sp := w.rec.start("wal.commit", w.cutParent, w.cutParent)
	err := w.inner.Commit(epoch, records, bounds, parent)
	sp.end()
	return err
}

// cut calls Engine.Snapshot under a live.cut span and returns the
// generation and how long the cut took. Only one goroutine cuts a
// given plane at a time.
func (p *plane) cut(rec *recorder) (*live.Generation, time.Duration) {
	return cutEngine(p.engine, p.wal, rec, 0, 0)
}

// cutEngine is cut for an engine that may not be behind a plane; w is
// the engine's span-recording WAL hook, nil if it has none.
func cutEngine(e *live.Engine, w *tracedWAL, rec *recorder, parent, req uint64) (*live.Generation, time.Duration) {
	clk := simclock.Wall()
	sp := rec.start("live.cut", parent, req)
	if w != nil {
		w.cutParent = sp.id
	}
	start := clk.Now()
	g := e.Snapshot()
	d := clk.Now().Sub(start)
	sp.end()
	return g, d
}
