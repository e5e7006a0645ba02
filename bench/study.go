package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"vmp"
)

// study_offline is the paper's actual reproduction and the bypass
// workload for every serving-plane change: rounds of a cold study —
// generate, freeze, compute every figure on GOMAXPROCS workers, render
// — with no live, wal, wire or obs anywhere. It shares
// telemetry.NewDataset with the epoch cut, built once and scanned many
// times here instead of rebuilt every epoch, so a Dataset change that
// helps one use and costs the other shows up as a pair.
func runStudyOffline(r *run) error {
	cfg := r.opt.studyConfig(r.opt.seed)
	if err := r.setup(func() (func() error, error) {
		r.generate()
		return nil, nil
	}); err != nil {
		return err
	}
	records := float64(len(r.recs))
	r.recs = nil // the rounds generate their own; only the count is needed

	var rec *recorder
	if r.opt.trace {
		rec = newRecorder(r.clock)
	}
	var (
		studyMS, freezeMS, heapPerRecord []float64
		hashes                           = make(map[string]int)
		workers                          = runtime.GOMAXPROCS(0)
		mem                              = startMem()
		timed                            time.Duration
	)
	for round := 0; timed < r.budget() || round < 2; round++ {
		r.thermo(&r.runThermo)
		heap0 := heapInUse()
		t0 := r.clock.Now()
		root := rec.start("study", 0, 0)
		s := vmp.New(cfg)

		sp := rec.start("core.generate", root.id, root.req)
		n := s.Store().Len()
		sp.end()

		sp = rec.start("core.freeze", root.id, root.req)
		t1 := r.clock.Now()
		s.Dataset()
		freezeMS = append(freezeMS, ms(r.clock.Now().Sub(t1)))
		sp.end()

		sp = rec.start("core.figures", root.id, root.req)
		err := s.RunAll(workers)
		sp.end()
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}

		sp = rec.start("core.render", root.id, root.req)
		h := sha256.New()
		err = s.RenderAllParallel(h, workers)
		sp.end()
		root.end()
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		took := r.clock.Now().Sub(t0)
		studyMS = append(studyMS, ms(took))
		timed += took

		r.attempted++
		if float64(n) != records {
			r.fail(1, "round %d generated %d records, set-up generated %.0f from the same seed", round, n, records)
		}
		hashes[hex.EncodeToString(h.Sum(nil))]++
		heapPerRecord = append(heapPerRecord, (heapInUse()-heap0)/records)
		runtime.KeepAlive(s)
	}
	if len(hashes) != 1 {
		r.fail(int64(len(hashes)-1), "%d rounds rendered %d different outputs: %v", len(studyMS), len(hashes), hashes)
	}
	r.thermo(&r.runThermo)
	r.spans = rec.take()

	r.setTime("op_p50_ms", median(studyMS), len(studyMS), r.runThermo)
	r.setTime("refresh_p50_ms", median(freezeMS), len(freezeMS), r.runThermo)
	r.set("heap_bytes_per_record", median(heapPerRecord), len(heapPerRecord))
	r.series["op_p50_ms"], r.series["refresh_p50_ms"] = studyMS, freezeMS
	if !r.opt.trace {
		return nil
	}
	stats := selfTimes(r.spans)
	for _, m := range [][2]string{
		{"core.generate_ms", "core.generate"},
		{"core.freeze_ms", "core.freeze"},
		{"core.figures_ms", "core.figures"},
		{"core.render_ms", "core.render"},
		{"telemetry.freeze_ms", "core.freeze"},
	} {
		v, n := stageMS(stats, m[1])
		r.set(m[0], v, n)
	}
	mem.setRuntime(r, int64(records)*int64(len(studyMS)))
	r.set("client.records_per_s", records/(median(studyMS)/1000), len(studyMS))
	return nil
}
