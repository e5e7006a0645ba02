package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/telemetry"
)

// The two ingest workloads share one round shape: boot a fresh plane,
// post the whole dataset closed-loop over two connections, cut, check
// the answers, tear down. ingest_wal adds the durability path: a WAL
// under the batch fsync policy, a checkpointing cut two thirds of the
// way through (so the crash image holds a checkpoint and tail
// segments), and a timed recovery from a copy of the WAL directory.
// No cut runs during a timed ingest phase, so epoch cost cannot mask
// admission cost.

// runIngest is an ingest workload: set-up generates the dataset and
// encodes it into bodies of batch records, and the rounds post them.
func runIngest(encode func([]telemetry.ViewRecord, int) (*bodySet, error), batch int, withWAL bool) func(*run) error {
	return func(r *run) error {
		var set *bodySet
		err := r.setup(func() (func() error, error) {
			r.generate()
			var err error
			set, err = encode(r.recs, batch)
			return nil, err
		})
		if err != nil {
			return err
		}
		return r.ingestRounds(set, withWAL)
	}
}

// ingestTally is what the rounds of an ingest workload observed.
type ingestTally struct {
	acks          postStats // every POST of every round
	tracedAcks    postStats // the POSTs of traced rounds only
	ackP50MS      []float64 // median POST → 202 per round
	rates         []float64 // records/s per untraced round
	tracedRates   []float64 // records/s per traced round
	refreshMS     []float64 // recovery (ingest_wal) or epoch cut (ingest_jsonl) per round
	heapPerRecord []float64
	cutRecords    []float64 // records published per cut, for live.cut_ms_per_krec

	fsyncs, batches     int64     // WAL fsyncs and acked batches, all rounds
	ckptBytes, segBytes []float64 // crash image, per round
	commitCkptBytes     []float64 // checkpoint size after the mid-round commit
	replayRecords       int64
	openMS, replayMS    []float64
	layerProbes
}

// ingestRounds runs rounds until the time budget is spent and reports
// the workload's metrics. In a traced run rounds alternate between the
// production handler and the traced one, so the per-layer numbers and
// the tracing overhead come from the same run.
func (r *run) ingestRounds(set *bodySet, withWAL bool) error {
	if err := checkConns(maxConns); err != nil {
		return err
	}
	want, err := oracle(r.recs, r.mix)
	if err != nil {
		return err
	}
	// From here on only the encoded bodies and the expected answers are
	// needed. Dropping the records keeps them out of the heap the
	// plane's garbage collector has to mark: every collection during a
	// round would otherwise pay for the generator's dataset too.
	records := int64(len(r.recs))
	r.recs = nil
	t := &ingestTally{}
	mem := startMem()
	var timed time.Duration
	for round := 0; timed < r.budget() || round < r.minRounds(); round++ {
		var rec *recorder
		if r.opt.trace && round%2 == 1 {
			rec = newRecorder(r.clock)
		}
		r.thermo(&r.runThermo)
		start := r.clock.Now()
		if err := r.ingestRound(round, set, withWAL, rec, want, t); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		timed += r.clock.Now().Sub(start)
		r.spans = append(r.spans, rec.take()...)
	}
	r.thermo(&r.runThermo)

	r.count(&t.acks)
	if t.acks.accepted != t.acks.sent {
		r.fail(1, "server accepted %d records, bench sent %d", t.acks.accepted, t.acks.sent)
	}
	lat := sortedCopy(t.acks.latMS)
	r.noteTail("POST → 202", lat)
	r.setTime("op_p50_ms", percentile(lat, 0.5), len(lat), r.runThermo)
	r.setTime("refresh_p50_ms", median(t.refreshMS), len(t.refreshMS), r.runThermo)
	r.set("heap_bytes_per_record", median(t.heapPerRecord), len(t.heapPerRecord))
	r.series["op_p50_ms"], r.series["refresh_p50_ms"] = t.ackP50MS, t.refreshMS
	if !r.opt.trace {
		return nil
	}

	r.setRequestLayers(selfTimes(r.spans), t.tracedAcks.rttMS, t.cutRecords)
	r.setProbeLayers(&t.layerProbes)
	r.set("wire.body_bytes_per_record", float64(set.bytes)/float64(records), 1)
	r.set("live.backpressured_batches", float64(t.acks.retries), 1)
	if withWAL {
		r.set("wal.fsyncs_per_batch", float64(t.fsyncs)/float64(t.batches), int(t.batches))
		r.set("wal.checkpoint_bytes_per_commit", mean(t.commitCkptBytes), len(t.commitCkptBytes))
		r.set("wal.segment_bytes_per_record", mean(t.segBytes)/float64(records), len(t.segBytes))
		r.set("wal.checkpoint_bytes_per_record", mean(t.ckptBytes)/float64(records), len(t.ckptBytes))
		r.set("wal.bytes_per_record", (mean(t.segBytes)+mean(t.ckptBytes))/float64(records), len(t.segBytes))
		r.set("wal.open_ms", mean(t.openMS), len(t.openMS))
		r.set("wal.replay_ms", mean(t.replayMS), len(t.replayMS))
		r.set("wal.replay_records_per_s", float64(t.replayRecords)/(mean(t.replayMS)*float64(len(t.replayMS))/1000), len(t.replayMS))
		r.set("wal.recovery_ms", mean(t.refreshMS), len(t.refreshMS))
	}
	mem.setRuntime(r, t.acks.sent)
	r.set("client.records_per_s", median(t.rates), len(t.rates))
	r.set("client.ack_p95_ms", percentile(lat, 0.95), len(lat))
	r.set("client.ack_p99_ms", percentile(lat, 0.99), len(lat))
	r.set("client.ack_max_ms", maxOf(lat), len(lat))
	r.set("client.retries", float64(t.acks.retries), 1)
	r.set("bench.trace_overhead_share", 1-median(t.tracedRates)/median(t.rates), len(t.tracedRates))
	return nil
}

// minRounds is the fewest rounds a run makes whatever its budget: a
// traced run needs one round of each kind.
func (r *run) minRounds() int {
	if r.opt.trace {
		return 2
	}
	return 1
}

// ingestRound is one round. rec is nil for an untraced round.
func (r *run) ingestRound(round int, set *bodySet, withWAL bool, rec *recorder, want map[string][]byte, t *ingestTally) error {
	dir := ""
	if withWAL {
		dir = filepath.Join(r.scratch, fmt.Sprintf("wal-%d", round))
		defer func() { _ = os.RemoveAll(dir) }()
	}
	heap0 := heapInUse()
	p, err := bootPlane(dir, rec)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = p.close()
		}
	}()
	c := newClient(p.url)
	defer c.close()

	// Timed ingest. With a WAL the checkpointing cut splits it in two
	// phases and is not part of either.
	split := len(set.bodies)
	if withWAL {
		split = len(set.bodies) * 2 / 3
	}
	acks, elapsed, err := c.closedLoop(r.ctx, set, set.bodies[:split], maxConns)
	if err != nil {
		return err
	}
	var prev *live.Generation
	if withWAL {
		prev = p.engine.Generation()
		g, _ := p.cut(rec)
		t.cutRecords = append(t.cutRecords, float64(g.Records))
		ckpt, _, err := dirSizes(dir)
		if err != nil {
			return err
		}
		t.commitCkptBytes = append(t.commitCkptBytes, float64(ckpt))
		more, d, err := c.closedLoop(r.ctx, set, set.bodies[split:], maxConns)
		if err != nil {
			return err
		}
		acks.merge(more)
		elapsed += d
	}
	rate := float64(acks.sent) / elapsed.Seconds()
	t.ackP50MS = append(t.ackP50MS, median(acks.latMS))
	t.acks.merge(acks)
	if rec != nil {
		t.tracedAcks.merge(acks)
		t.tracedRates = append(t.tracedRates, rate)
	} else {
		t.rates = append(t.rates, rate)
	}

	// The crash image: with every ack fsynced and the writers idle, a
	// copy of the directory is what kill -9 would leave.
	image := dir + "-crash"
	if withWAL {
		defer func() { _ = os.RemoveAll(image) }()
		if err := copyDir(dir, image); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		ckpt, seg, err := dirSizes(image)
		if err != nil {
			return err
		}
		t.ckptBytes = append(t.ckptBytes, float64(ckpt))
		t.segBytes = append(t.segBytes, float64(seg))
		t.fsyncs += p.engine.Metrics().Counter("wal_fsync_total").Load()
		t.batches += int64(len(acks.latMS))
	}

	// The round's final cut publishes everything; the live answers
	// must equal the oracle's.
	if !withWAL {
		prev = p.engine.Generation()
		runtime.GC() // as before recovery: the cut is timed from a collected heap, not from wherever ingest left the collector
	}
	g, cut := p.cut(rec)
	if !withWAL {
		t.refreshMS = append(t.refreshMS, ms(cut))
	}
	t.cutRecords = append(t.cutRecords, float64(g.Records))
	if int64(g.Records) != acks.sent {
		r.fail(1, "round %d: generation holds %d records, %d were acked", round, g.Records, acks.sent)
	}
	r.checkAnswers(fmt.Sprintf("round %d live plane", round), r.fetchAnswers(c), want)
	t.heapPerRecord = append(t.heapPerRecord, (heapInUse()-heap0)/float64(g.Records))
	runtime.KeepAlive(set) // live at heap0, so live here: its garbage is not the plane's
	if rec != nil {
		if err := r.probeLayers(p, c, prev, g, &t.layerProbes); err != nil {
			return err
		}
	}
	closed = true
	if err := p.close(); err != nil {
		return err
	}
	if withWAL {
		return r.recoverImage(round, image, rec, want, acks.sent, t)
	}
	return nil
}

// recoverImage boots a second engine from the crash image the way
// vmpd boots — open, replay through Ingest, attach, cut — and times
// it up to the first query answered. The recovered answers must equal
// the oracle's: every acked record survived and nothing else did.
func (r *run) recoverImage(round int, image string, rec *recorder, want map[string][]byte, acked int64, t *ingestTally) error {
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(r.clock, planeTraceDepth)
	tracer.SetEnabled(true)
	engine := live.NewEngine(live.Config{
		Shards: planeShards, QueueDepth: planeQueueDepth, BatchMax: planeBatchMax,
		Clock: r.clock, Metrics: metrics, Trace: tracer,
	})
	defer engine.Close()

	runtime.GC() // the retired plane is garbage; collect it before the clock starts, not during replay
	root := rec.start("wal.recovery", 0, 0)
	start := r.clock.Now()
	sp := rec.start("wal.open", root.id, root.req)
	wlog, err := openWAL(image, metrics, tracer)
	sp.end()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = wlog.Close() }()
	opened := r.clock.Now()

	sp = rec.start("wal.replay", root.id, root.req)
	stats, err := wlog.Replay(func(recs []telemetry.ViewRecord) error {
		return ingestAll(r.ctx, engine, recs)
	}, 0)
	sp.end()
	if err != nil {
		return fmt.Errorf("recovery: replay: %w", err)
	}
	replayed := r.clock.Now()

	g, _ := cutEngine(engine, attachWAL(engine, wlog, rec), rec, root.id, root.req)
	first := r.mix[0]
	resp, err := first.run(g.Dataset)
	if err == nil {
		_, err = live.MarshalResponse(resp)
	}
	if err != nil {
		return fmt.Errorf("recovery: first query: %w", err)
	}
	done := r.clock.Now()
	root.end()

	t.refreshMS = append(t.refreshMS, ms(done.Sub(start)))
	t.openMS = append(t.openMS, ms(opened.Sub(start)))
	t.replayMS = append(t.replayMS, ms(replayed.Sub(opened)))
	t.replayRecords += stats.Delivered()
	if stats.Delivered() != acked || int64(g.Records) != acked {
		r.fail(1, "round %d: recovery delivered %d records into a generation of %d, %d were acked",
			round, stats.Delivered(), g.Records, acked)
	}
	got, err := answers(g.Dataset, r.mix)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.checkAnswers(fmt.Sprintf("round %d recovered engine", round), got, want)
	return nil
}
