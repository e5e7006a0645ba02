package live

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// benchIngest measures admission + micro-batched append throughput:
// one op is a 500-record batch through Ingest. The engine is recycled
// every 200 ops (outside the timer) so pending-buffer growth doesn't
// turn the bench into a memory benchmark. With traced, every batch
// runs under an enabled tracer (span per admit and consume, event per
// admission) — the delta against the untraced run is the tracing
// overhead quoted in EXPERIMENTS.md.
func benchIngest(b *testing.B, traced bool) {
	recs := genRecords(500)
	cfg := Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart)}
	newEngine := func() *Engine {
		if traced {
			cfg.Trace = obs.NewTracer(cfg.Clock, 4096)
		} else {
			cfg.Trace = nil // withDefaults installs a disabled tracer
		}
		return NewEngine(cfg)
	}
	e := newEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%200 == 0 {
			b.StopTimer()
			e.Close()
			e = newEngine()
			b.StartTimer()
		}
		for {
			res, err := e.Ingest(recs)
			if err != nil {
				b.Fatal(err)
			}
			if res.Backpressured == 0 {
				break
			}
		}
	}
	b.StopTimer()
	e.Close()
	b.ReportMetric(float64(500*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLiveIngest is the untraced baseline: the engine carries a
// disabled tracer, so every instrumentation site costs one atomic
// load and zero allocations.
func BenchmarkLiveIngest(b *testing.B) { benchIngest(b, false) }

// BenchmarkIngestTraced runs the same workload with tracing enabled
// (span and event rings of 4096).
func BenchmarkIngestTraced(b *testing.B) { benchIngest(b, true) }

// BenchmarkIngestSampled runs the untraced workload with the full
// self-measurement plane live, exactly as vmpd wires it: a series
// ring, a sampler goroutine on its production 1s cadence publishing
// runtime stats and the engine's gauges, and a snapshot recorded per
// sample. The delta against BenchmarkLiveIngest is the sampler's cost
// to the ingest path — it should be noise, since sampling touches only
// atomics the hot path already owns.
func BenchmarkIngestSampled(b *testing.B) {
	recs := genRecords(500)
	cfg := Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart)}
	newWorld := func() (*Engine, context.CancelFunc) {
		cfg.Series = obs.NewSeriesRing(600)
		e := NewEngine(cfg)
		s := obs.NewSampler(e.Metrics(), cfg.Series, cfg.Clock, time.Second)
		s.AddSource(e.PublishGauges)
		ctx, cancel := context.WithCancel(context.Background())
		go s.Run(ctx)
		return e, cancel
	}
	e, cancel := newWorld()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%200 == 0 {
			b.StopTimer()
			cancel()
			e.Close()
			e, cancel = newWorld()
			b.StartTimer()
		}
		for {
			res, err := e.Ingest(recs)
			if err != nil {
				b.Fatal(err)
			}
			if res.Backpressured == 0 {
				break
			}
		}
	}
	b.StopTimer()
	cancel()
	e.Close()
	b.ReportMetric(float64(500*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkQuery is the generation-size sweep for the query functions:
// one op is the serving mix asked once — share × {protocol, platform,
// cdn} × {viewhours, views}, top publishers, one window — over a
// Dataset of 50 k, 200 k or 800 k records. cold asks a Dataset nobody
// has asked before (made by merging one record, outside the timer), so
// every answer is a scan and ns/op grows with the size; warm asks
// the same Dataset again, so every answer is already on it and ns/op
// must be flat in the size.
func BenchmarkQuery(b *testing.B) {
	mix := func(b *testing.B, ds *telemetry.Dataset) {
		for _, dim := range queryDims {
			for _, by := range []string{"viewhours", "views"} {
				if _, err := ShareOver(ds, dim, by); err != nil {
					b.Fatal(err)
				}
			}
		}
		TopPublishersOver(ds, 10)
		WindowOver(ds, simclock.DayTime(20), 7)
	}
	for _, size := range []int{50_000, 200_000, 800_000} {
		recs := genRecords(size + 1)
		telemetry.CanonicalSort(recs)
		base := telemetry.NewDataset(recs[:size:size])
		b.Run(fmt.Sprintf("cold/%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := base.Merge([]telemetry.ViewRecord{recs[size]})
				b.StartTimer()
				mix(b, ds)
			}
		})
		b.Run(fmt.Sprintf("warm/%dk", size/1000), func(b *testing.B) {
			mix(b, base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mix(b, base)
			}
		})
	}
}

// BenchmarkQueryUnderIngest measures query latency on the published
// generation while a writer goroutine streams batches and a
// snapshotter cuts epochs — the serving plane's steady state: a
// generation's first asking of each dimension scans it, every asking
// until the next cut is answered from the Dataset. Queries read the
// atomic generation pointer and share no lock with the append path, so
// ingest stalls cannot show up in these numbers.
func BenchmarkQueryUnderIngest(b *testing.B) {
	e := NewEngine(Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart)})
	defer e.Close()
	if _, err := e.Ingest(genRecords(50000)); err != nil {
		b.Fatal(err)
	}
	e.Snapshot()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		batch := genRecords(500)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if res, err := e.Ingest(batch); err != nil || res.Backpressured > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				e.Snapshot()
			}
		}
	}()

	dims := []string{"protocol", "platform", "cdn"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := e.Generation()
		if _, err := ShareOver(g.Dataset, dims[i%len(dims)], "viewhours"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-writerDone
	<-snapDone
}
