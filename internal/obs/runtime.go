package obs

// This file is the runtime collector of the self-measurement plane: a
// ctx-guarded sampler goroutine that, on a fixed cadence, publishes Go
// runtime health (heap, GC, goroutines, scheduler shape) into the
// registry, asks each registered source to publish its plane-internal
// gauges (queue depth, WAL backlog, generation age), and then
// records one registry snapshot into the series ring — so the
// /v1/series flight recorder and the /metrics exposition always agree,
// because they are views of the same sampled registry.

import (
	"context"
	"runtime"
	"time"

	"vmp/internal/simclock"
)

// Sampler drives periodic self-measurement. Configure it fully (all
// AddSource calls) before starting Run; Sample itself is safe to call
// concurrently with readers of the registry and ring.
type Sampler struct {
	reg     *Registry
	series  *SeriesRing
	clock   simclock.Clock
	every   time.Duration
	sources []func()

	samples    *Counter
	heapAlloc  *Gauge
	heapSys    *Gauge
	heapObjs   *Gauge
	stackInuse *Gauge
	gcPauseNS  *Gauge
	gcRuns     *Gauge
	goroutines *Gauge
	gomaxprocs *Gauge
	cpus       *Gauge
}

// NewSampler returns a sampler publishing into reg and recording
// snapshots into series (nil series just skips the recording). A nil
// clock means the wall clock; cadences < 1s default to 1s.
func NewSampler(reg *Registry, series *SeriesRing, clock simclock.Clock, every time.Duration) *Sampler {
	if clock == nil {
		clock = simclock.Wall()
	}
	if every < time.Second {
		every = time.Second
	}
	return &Sampler{
		reg:        reg,
		series:     series,
		clock:      clock,
		every:      every,
		samples:    reg.Counter("obs_samples_total"),
		heapAlloc:  reg.Gauge("go_heap_alloc_bytes"),
		heapSys:    reg.Gauge("go_heap_sys_bytes"),
		heapObjs:   reg.Gauge("go_heap_objects"),
		stackInuse: reg.Gauge("go_stack_inuse_bytes"),
		gcPauseNS:  reg.Gauge("go_gc_pause_total_ns"),
		gcRuns:     reg.Gauge("go_gc_runs"),
		goroutines: reg.Gauge("go_goroutines"),
		gomaxprocs: reg.Gauge("go_sched_gomaxprocs"),
		cpus:       reg.Gauge("go_sched_cpus"),
	}
}

// AddSource registers a plane-internal gauge publisher invoked on
// every sample (the live engine's queue depths, the WAL's backlog).
// Not safe to call after Run has started.
func (s *Sampler) AddSource(fn func()) {
	if fn != nil {
		s.sources = append(s.sources, fn)
	}
}

// Sample performs one sampling pass: runtime stats, plane sources,
// then one series point recording the registry as it stands.
func (s *Sampler) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapAlloc.Set(int64(ms.HeapAlloc))
	s.heapSys.Set(int64(ms.HeapSys))
	s.heapObjs.Set(int64(ms.HeapObjects))
	s.stackInuse.Set(int64(ms.StackInuse))
	s.gcPauseNS.Set(int64(ms.PauseTotalNs))
	s.gcRuns.Set(int64(ms.NumGC))
	s.goroutines.Set(int64(runtime.NumGoroutine()))
	s.gomaxprocs.Set(int64(runtime.GOMAXPROCS(0)))
	s.cpus.Set(int64(runtime.NumCPU()))
	for _, fn := range s.sources {
		fn()
	}
	s.samples.Add(1)
	if s.series != nil {
		s.series.Record(s.clock.Now(), s.reg.Snapshot())
	}
}

// Run samples immediately, then on the configured cadence until ctx is
// done. The ticker is operational heartbeat, not study time, so the
// real ticker is correct here; determinism-sensitive tests drive
// Sample (or SeriesRing.Record) directly instead.
func (s *Sampler) Run(ctx context.Context) {
	s.Sample()
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.Sample()
		}
	}
}
