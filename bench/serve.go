package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// serve_mixed is reads beside writes on a large, growing generation.
// One plane with a WAL is preloaded with the whole dataset and cut;
// then, for the run's budget, connection 1 sends open-loop queries
// cycling through the query mix, connection 2 sends open-loop POSTs of
// binary frames from a second dataset, and a third goroutine cuts an
// epoch (checkpoint included) once per cutEvery POSTs. Cuts are
// counted in POSTs, not seconds, so every run cuts the same epochs.
//
// A query that is due while a cut runs shares the processors with the
// cut and its garbage; one due between cuts does not. The workload's
// operation is every query: cuts fill less than half of the window, so
// the median is what an analyst sees most of the time, and the two
// kinds are reported apart under layer client.
const (
	queryRate   = 200 // queries per second
	writeRate   = 25  // POSTs per second
	cutEvery    = 25  // POSTs per cycle, and so between epoch cuts
	mixedStride = 24  // snapshot stride of the writer's dataset
	preloadStep = 4096
)

func runServeMixed(r *run) error {
	if err := checkConns(maxConns); err != nil {
		return err
	}
	var rec *recorder
	if r.opt.trace {
		rec = newRecorder(r.clock)
	}
	dir := filepath.Join(r.scratch, "wal-serve")
	defer func() { _ = os.RemoveAll(dir) }()

	var (
		p      *plane
		writes *bodySet
		extra  []telemetry.ViewRecord
		heap0  float64
	)
	err := r.setup(func() (func() error, error) {
		r.generate()
		cfg := r.opt.studyConfig(r.opt.seed + 1)
		if !r.opt.quick {
			cfg.SnapshotStride = mixedStride
		}
		extra, _ = generate(cfg)
		var err error
		if writes, err = encodeBinary(extra, mixedBatch); err != nil {
			return nil, err
		}
		heap0 = heapInUse()
		if p, err = bootPlane(dir, rec); err != nil {
			return nil, err
		}
		undo := func() error {
			err := p.close()
			p = nil // or the retired plane would still be live when the next pass reads heap0
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			return err
		}
		for lo := 0; lo < len(r.recs); lo += preloadStep {
			if err := ingestAll(r.ctx, p.engine, r.recs[lo:min(lo+preloadStep, len(r.recs))]); err != nil {
				_ = undo()
				return nil, err
			}
		}
		if g := p.engine.Snapshot(); g.Records != len(r.recs) {
			_ = undo()
			return nil, fmt.Errorf("preload published %d records of %d", g.Records, len(r.recs))
		}
		return undo, nil
	})
	if err != nil {
		return err
	}
	defer func() { _ = p.close() }()
	rec.take() // spans of set-up are not part of the measurement
	c := newClient(p.url)
	defer c.close()

	// The measured window: one cycle per cutEvery posts, the
	// thermometer read between cycles.
	m := &mixedLoad{r: r, p: p, c: c, rec: rec, writes: writes, every: cutEvery}
	if r.opt.quick {
		m.every = 5
	}
	if rec != nil {
		m.prev = p.engine.Generation()
		m.last = m.prev
	}
	mem := startMem()
	fsyncs0 := p.engine.Metrics().Counter("wal_fsync_total").Load() // the preload's appends are not the writer's
	for cycle := 0; cycle < max(r.opt.seconds*writeRate/m.every, 1); cycle++ {
		r.thermo(&r.runThermo)
		if err := m.cycle(); err != nil {
			return err
		}
	}
	r.thermo(&r.runThermo)
	r.spans = rec.take()
	acks := &m.acks

	// Publish the tail, then check the books and the answers.
	g, _ := p.cut(nil)
	r.attempted += int64(len(m.queries))
	r.count(acks)
	if acks.accepted != acks.sent {
		r.fail(1, "server accepted %d records, bench sent %d", acks.accepted, acks.sent)
	}
	all := append([]telemetry.ViewRecord(nil), r.recs...)
	for i := 0; i < len(acks.latMS); i++ {
		b := i % len(writes.bodies)
		all = append(all, extra[b*mixedBatch:min((b+1)*mixedBatch, len(extra))]...)
	}
	if g.Records != len(all) {
		r.fail(1, "final generation holds %d records, %d were loaded and acked", g.Records, len(all))
	}
	want, err := oracle(all, r.mix)
	if err != nil {
		return err
	}
	all = nil
	r.checkAnswers("live plane", r.fetchAnswers(c), want)

	var cutMS, cutRecs []float64
	for _, c := range m.cuts {
		cutMS = append(cutMS, ms(c.to.Sub(c.from)))
		cutRecs = append(cutRecs, float64(c.records))
	}
	underCut, idle, every := m.splitQueries()
	r.noteTail("query due while a cut ran, from due time", underCut)
	r.noteTail("query due while no cut ran, from due time", idle)
	r.noteTail("writer POST → 202 from due time", sortedCopy(acks.latMS))
	r.setTime("op_p50_ms", percentile(every, 0.5), len(every), r.runThermo)
	if rate := float64(acks.sent) / m.wrote.Seconds(); rate < 0.98*writeRate*mixedBatch {
		r.fail(1, "the writer's schedule asks for %d records/s and the plane acked %.0f", writeRate*mixedBatch, rate)
	}
	r.setTime("refresh_p50_ms", median(cutMS), len(cutMS), r.runThermo)
	r.series["refresh_p50_ms"] = cutMS
	r.set("heap_bytes_per_record", (heapInUse()-heap0)/float64(g.Records), 1)
	// Everything that was live when heap0 was read must still be live
	// at the reading above, or the bench's own garbage would be
	// credited to the plane.
	runtime.KeepAlive(extra)
	runtime.KeepAlive(writes)
	if !r.opt.trace {
		return nil
	}

	var probes layerProbes
	if err := r.probeLayers(p, c, m.prev, m.last, &probes); err != nil {
		return err
	}
	ws := sortedCopy(acks.latMS)
	r.setRequestLayers(selfTimes(r.spans), acks.rttMS, cutRecs)
	r.setProbeLayers(&probes)
	r.set("wire.body_bytes_per_record", float64(writes.bytes)/float64(writes.records()), 1)
	r.set("live.backpressured_batches", float64(acks.retries), 1)
	r.set("wal.fsyncs_per_batch", float64(p.engine.Metrics().Counter("wal_fsync_total").Load()-fsyncs0)/float64(len(ws)), len(ws))
	ckpt, seg, err := dirSizes(dir)
	if err != nil {
		return err
	}
	r.set("wal.checkpoint_bytes_per_commit", float64(ckpt), 1)
	r.set("wal.segment_bytes_per_record", float64(seg)/float64(g.Records), 1)
	r.set("wal.checkpoint_bytes_per_record", float64(ckpt)/float64(g.Records), 1)
	r.set("wal.bytes_per_record", float64(ckpt+seg)/float64(g.Records), 1)
	mem.setRuntime(r, acks.sent)
	r.set("client.records_per_s", float64(acks.sent)/m.wrote.Seconds(), len(ws))
	r.set("client.query_idle_p50_ms", percentile(idle, 0.5), len(idle))
	r.set("client.query_undercut_p50_ms", percentile(underCut, 0.5), len(underCut))
	r.set("client.query_p95_ms", percentile(every, 0.95), len(every))
	r.set("client.query_p99_ms", percentile(every, 0.99), len(every))
	r.set("client.mixed_ack_p50_ms", percentile(ws, 0.5), len(ws))
	r.set("client.mixed_ack_p95_ms", percentile(ws, 0.95), len(ws))
	r.set("client.max_late_ms", ms(max(m.lateQ, m.lateW)), 1)
	r.set("client.retries", float64(acks.retries), 1)
	return nil
}

// mixedLoad is serve_mixed's load generator and what it observed.
type mixedLoad struct {
	r      *run
	p      *plane
	c      *client
	rec    *recorder
	writes *bodySet
	every  int // posts per cycle

	sentQueries, sentPosts int // so far, over all cycles
	queries                []servedQuery
	acks                   postStats
	cuts                   []servedCut
	lateQ, lateW           time.Duration // how late each generator sent its latest request
	wrote                  time.Duration // the writer's schedule, summed over cycles

	// The last two generations cut, kept only by a traced run (for the
	// sort/freeze probe): holding a retired generation would double
	// the heap an untraced run reports.
	prev, last *live.Generation
}

type servedQuery struct {
	due time.Time
	ms  float64 // from due
}

type servedCut struct {
	from, to time.Time
	records  int
}

// cycle is one stretch of load: connection 1 sends open-loop queries
// cycling through the mix, connection 2 sends m.every open-loop POSTs,
// and a third goroutine cuts an epoch, checkpoint included, as soon as
// the cycle's first POST is acked. The cut publishes what the cycle
// before wrote and has the whole cycle to run beside the traffic. The
// cycle ends when all three are done.
func (m *mixedLoad) cycle() error {
	r := m.r
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errs     [2]error
		firstAck = make(chan struct{})
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		first := m.sentQueries
		m.sentQueries += m.every * queryRate / writeRate
		late, err := openLoop(ctx, r.clock, simclock.Wait, time.Second/queryRate, m.sentQueries-first, func(i int, due time.Time) error {
			q := r.mix[(first+i)%len(r.mix)]
			status, _, err := m.c.get(ctx, q.path)
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("GET %s: status %d", q.path, status)
			}
			m.queries = append(m.queries, servedQuery{due, ms(r.clock.Now().Sub(due))})
			return nil
		})
		m.lateQ = max(m.lateQ, late)
		if errs[0] = err; err != nil {
			cancel()
		}
	}()
	go func() {
		defer wg.Done()
		first := m.sentPosts
		m.sentPosts += m.every
		start := r.clock.Now()
		late, err := openLoop(ctx, r.clock, simclock.Wait, time.Second/writeRate, m.every, func(i int, due time.Time) error {
			if err := m.c.post(ctx, m.writes, m.writes.bodies[(first+i)%len(m.writes.bodies)], due, &m.acks); err != nil {
				return err
			}
			if i == 0 {
				close(firstAck)
			}
			return nil
		})
		m.wrote += r.clock.Now().Sub(start)
		m.lateW = max(m.lateW, late)
		if errs[1] = err; err != nil {
			cancel()
		}
	}()
	go func() {
		defer wg.Done()
		select {
		case <-firstAck:
		case <-ctx.Done():
			return
		}
		from := r.clock.Now()
		g, d := m.p.cut(m.rec)
		m.cuts = append(m.cuts, servedCut{from, from.Add(d), g.Records})
		if m.rec != nil {
			m.prev, m.last = m.last, g
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitQueries sorts the query latencies into those of queries that
// were due while a cut ran, those due while none ran, and all of them.
func (m *mixedLoad) splitQueries() (underCut, idle, every []float64) {
	for _, q := range m.queries {
		cutting := false
		for _, c := range m.cuts {
			if !q.due.Before(c.from) && q.due.Before(c.to) {
				cutting = true
				break
			}
		}
		if cutting {
			underCut = append(underCut, q.ms)
		} else {
			idle = append(idle, q.ms)
		}
		every = append(every, q.ms)
	}
	sort.Float64s(underCut)
	sort.Float64s(idle)
	sort.Float64s(every)
	return underCut, idle, every
}
