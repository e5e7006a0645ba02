// Command vmpstudy regenerates the paper's tables and figures from the
// synthetic ecosystem.
//
// Usage:
//
//	vmpstudy -figure 2b            # one figure
//	vmpstudy -figure all           # the whole study
//	vmpstudy -figure 18 -o fig18.txt
//
// The -stride flag thins the bi-weekly snapshot schedule for quick
// runs; -seed changes the synthetic population. With -figure all the
// figures are computed on a worker pool (-workers); output is
// byte-identical to a serial run. -cpuprofile and -memprofile write
// pprof profiles for performance work.
//
// The offline answer modes mirror the vmpd query API over a JSONL
// dataset: -share and -top compute the same responses, through the
// same code, that a vmpd generation serves — byte-identical when both
// saw the same records:
//
//	vmpstudy -input views.jsonl -share protocol
//	vmpstudy -input views.jsonl -top 10
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	"vmp"
	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// errScorecardFailed signals a non-zero exit without a message (the
// failures are already in the rendered scorecard), letting run()'s
// defers — profile writers, output files — complete first.
var errScorecardFailed = errors.New("scorecard failures")

func main() {
	if err := run(); err != nil {
		if !errors.Is(err, errScorecardFailed) {
			fmt.Fprintln(os.Stderr, "vmpstudy:", err)
		}
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		figure     = flag.String("figure", "all", "table/figure ID to regenerate, or 'all'")
		seed       = flag.Uint64("seed", 0, "population seed (0 = default)")
		stride     = flag.Int("stride", 1, "use every k-th snapshot (1 = full study)")
		sessions   = flag.Int("sessions", 150, "playback sessions per publisher for Figs 15/16")
		out        = flag.String("o", "", "output file (default stdout)")
		format     = flag.String("format", "text", "output format: text or csv")
		list       = flag.Bool("list", false, "list figure IDs and exit")
		scorecard  = flag.Bool("scorecard", false, "render the paper-vs-measured scorecard and exit non-zero on failures")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for -figure all (1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime/trace execution trace to this file")
		stats      = flag.Bool("stats", false, "print a per-figure timing table to stderr after rendering")
		input      = flag.String("input", "", "JSONL dataset to analyze instead of generating one")
		shareDim   = flag.String("share", "", "offline answer mode: share-of-traffic for this dimension (protocol, platform, cdn)")
		shareBy    = flag.String("share-by", "", "share weighting: viewhours (default) or views")
		topN       = flag.Int("top", 0, "offline answer mode: top-N publishers by view-hours")
	)
	flag.Parse()

	if *list {
		for _, id := range vmp.Figures {
			fmt.Println(id)
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "vmpstudy: cpuprofile:", err)
			}
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vmpstudy: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "vmpstudy: memprofile:", err)
			}
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		if err := rtrace.Start(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			rtrace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "vmpstudy: trace:", err)
			}
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		// A failed close loses buffered figure data; surface it as the
		// run's error unless an earlier one already claimed the exit.
		defer func() {
			if err := f.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
		w = f
	}

	var store *telemetry.Store
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		store, err = vmp.ReadDataset(bufio.NewReaderSize(f, 1<<20))
		_ = f.Close() // read side: a close failure loses nothing
		if err != nil {
			return fmt.Errorf("reading %s: %w", *input, err)
		}
	}

	cfg := vmp.Config{Seed: *seed, SnapshotStride: *stride, QoESessions: *sessions}
	var study *vmp.Study
	if store != nil {
		study = vmp.NewFromStore(cfg, store)
	} else {
		study = vmp.New(cfg)
	}
	if *shareDim != "" || *topN > 0 {
		return answer(w, study.Dataset(), *shareDim, *shareBy, *topN)
	}
	if *stats {
		tr := obs.NewTracer(simclock.Wall(), 4096)
		study.SetTracer(tr)
		defer printFigureStats(os.Stderr, tr)
	}
	if *scorecard {
		failures, err := study.RenderScorecard(w)
		if err != nil {
			return err
		}
		if failures > 0 {
			return errScorecardFailed
		}
		return nil
	}
	switch *format {
	case "text":
		if *figure == "all" {
			if *workers > 1 {
				return study.RenderAllParallel(w, *workers)
			}
			return study.RenderAll(w)
		}
		return study.Render(w, *figure)
	case "csv":
		if *figure == "all" {
			return fmt.Errorf("-format csv requires a single -figure")
		}
		return study.RenderCSV(w, *figure)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// printFigureStats renders the per-figure timing table from the
// tracer's figure.<id> stage aggregates, in presentation order. With
// -figure all each figure has exactly one span; repeated renders (or a
// parallel run that recomputed nothing) show up in the count column.
func printFigureStats(w io.Writer, tr *obs.Tracer) {
	byName := map[string]obs.StageStat{}
	for _, st := range tr.StageStats() {
		byName[st.Name] = st
	}
	var totalUS int64
	fmt.Fprintln(w, "per-figure timing:")
	fmt.Fprintf(w, "  %-16s %6s %12s %12s\n", "figure", "count", "total", "max")
	for _, id := range vmp.Figures {
		st, ok := byName["figure."+id]
		if !ok {
			continue
		}
		totalUS += st.SumUS
		fmt.Fprintf(w, "  %-16s %6d %10.3fms %10.3fms\n",
			id, st.Count, float64(st.SumUS)/1e3, float64(st.MaxUS)/1e3)
	}
	fmt.Fprintf(w, "  %-16s %6s %10.3fms\n", "total", "", float64(totalUS)/1e3)
}

// answer computes vmpd-equivalent query responses offline. The study's
// dataset is in the canonical order an Engine snapshot is, and the
// computation and serialization are the same functions, so a vmpd that
// ingested the same records answers byte-identically.
func answer(w io.Writer, ds *telemetry.Dataset, shareDim, shareBy string, topN int) error {
	if shareDim != "" {
		resp, err := live.ShareOver(ds, shareDim, shareBy)
		if err != nil {
			return err
		}
		if err := live.WriteJSON(w, resp); err != nil {
			return err
		}
	}
	if topN > 0 {
		if err := live.WriteJSON(w, live.TopPublishersOver(ds, topN)); err != nil {
			return err
		}
	}
	return nil
}
