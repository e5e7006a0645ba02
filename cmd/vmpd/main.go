// Command vmpd runs the live serving plane: streaming ingest of view
// records (binary batch frames or JSON lines), epoch snapshots merged
// into immutable queryable generations, and the query API — the online
// counterpart of the offline vmpstudy pipeline. A freshly cut epoch answers
// /v1/query/* byte-identically to vmpstudy over the same records.
//
// Started without -wal-dir it is also the store-and-forward collector —
// the streaming-analytics backend of §3 at its simplest: -load preloads
// a JSONL dataset, POST /v1/views accumulates, and -dump writes
// everything held to a JSONL file after the SIGINT/SIGTERM drain.
//
// Usage:
//
//	vmpd -addr :8474 -epoch 5s
//	vmpgen -stride 24 -post http://localhost:8474
//	curl http://localhost:8474/v1/query/share?dim=protocol
//	vmpd -load views.jsonl -dump views.out.jsonl     # store and forward
//	vmpgen -stride 8 | curl --data-binary @- http://localhost:8474/v1/views
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"vmp/internal/graceful"
	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8474", "listen address")
		queueDepth = flag.Int("queue-depth", 64, "memory ceiling: records admitted but not yet cut into a generation, in units of 16384 (~5.4 MB of rows each); a POST past it is a 429 until the next epoch")
		epoch      = flag.Duration("epoch", 5*time.Second, "snapshot cadence")
		load       = flag.String("load", "", "JSONL dataset to preload before serving")
		dump       = flag.String("dump", "", "JSONL file to write the final generation to on shutdown")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory, fsynced before every 202; empty disables durability")
	)
	flag.Parse()

	clk := simclock.Wall()
	tracer := obs.NewTracer(clk, traceDepth)
	metrics := obs.NewRegistry()
	series := obs.NewSeriesRing(seriesDepth)
	engine := live.NewEngine(live.Config{
		QueueDepth: *queueDepth,
		EpochEvery: *epoch,
		Clock:      clk,
		Metrics:    metrics,
		Trace:      tracer,
		Series:     series,
	})
	ctx, cancel := context.WithCancel(context.Background())

	// The WAL replays BEFORE it is attached (so replayed records are
	// not appended back to the log they came from) and before the
	// listener opens (so no query can observe the pre-replay state);
	// the snapshot after attach republishes the recovered generation,
	// and folds the replayed segments into a fresh checkpoint if they
	// have outgrown the old one.
	var wlog *wal.Log
	if *walDir != "" {
		var err error
		wlog, err = wal.Open(wal.Options{
			Dir:     *walDir,
			Clock:   clk,
			Metrics: metrics,
			Trace:   tracer,
		})
		if err != nil {
			log.Fatal(fmt.Errorf("vmpd: %w", err))
		}
		stats, err := wlog.Replay(func(recs []telemetry.ViewRecord) error {
			return ingestAll(engine, recs)
		}, 0)
		if err != nil {
			log.Fatal(fmt.Errorf("vmpd: wal replay: %w", err))
		}
		// A first boot logs the -load file into the WAL, so a restart
		// that loads it again would hold every record twice.
		if *load != "" && stats.Delivered() > 0 {
			log.Fatal(fmt.Errorf("vmpd: -load %s: the WAL in %s already replayed %d records; boot without -load", *load, *walDir, stats.Delivered()))
		}
		engine.AttachWAL(wlog)
		g := engine.Snapshot()
		log.Printf("vmpd: wal %s replayed %d records (%d checkpoint + %d segment, %d torn tails); epoch %d",
			*walDir, stats.Delivered(), stats.CheckpointRecords, stats.SegmentRecords, stats.TornTails, g.Epoch)
	}
	if *load != "" {
		n, err := preload(engine, *load)
		if err != nil {
			log.Fatal(fmt.Errorf("vmpd: %w", err))
		}
		g := engine.Snapshot()
		log.Printf("vmpd: preloaded %d records from %s (epoch %d)", n, *load, g.Epoch)
	}

	go engine.Run(ctx)
	// The self-measurement plane: one sampler publishes Go runtime
	// stats plus the engine's and WAL's internal gauges, then records a
	// registry snapshot into the series ring /v1/series serves.
	sampler := obs.NewSampler(metrics, series, clk, sampleEvery)
	sampler.AddSource(engine.PublishGauges)
	if wlog != nil {
		sampler.AddSource(wlog.PublishGauges)
	}
	go sampler.Run(ctx)

	server := live.NewServer(engine)
	srv := newHTTPServer(*addr, server.Handler())
	log.Printf("vmpd: listening on %s (%s epochs)", *addr, *epoch)
	err := graceful.RunNotify(srv, nil, drainTimeout, nil, func(phase string) {
		tracer.Emit("graceful_" + phase)
	})
	cancel()
	// Close cuts a final epoch over everything the drained handlers
	// admitted, so the dump sees every accepted record exactly once.
	g := engine.Close()
	if err != nil {
		log.Fatal(fmt.Errorf("vmpd: %w", err))
	}
	log.Printf("vmpd: drained; final epoch %d holds %d records", g.Epoch, g.Records)
	if wlog != nil {
		// Close's final epoch is in the WAL — as a fresh checkpoint, or
		// as segments on top of the last one; close flushes and releases
		// the files.
		if err := wlog.Close(); err != nil {
			log.Printf("vmpd: wal close: %v", err)
		}
	}
	if *dump != "" {
		if err := dumpGeneration(g, *dump); err != nil {
			log.Fatal(fmt.Errorf("vmpd: dump: %w", err))
		}
		log.Printf("vmpd: dumped %d records to %s", g.Records, *dump)
	}
}

// preload admits a JSONL file as one batch.
func preload(engine *live.Engine, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	recs, bad, err := telemetry.ScanJSONL(bufio.NewReaderSize(f, 1<<20))
	_ = f.Close() // read side: a close failure loses nothing
	if err != nil {
		return 0, fmt.Errorf("loading %s: %w", path, err)
	}
	if bad > 0 {
		return 0, fmt.Errorf("loading %s: %d malformed lines", path, bad)
	}
	if err := ingestAll(engine, recs); err != nil {
		return 0, fmt.Errorf("loading %s: %w", path, err)
	}
	return len(recs), nil
}

// ingestAll admits one batch before the listener opens and before Run
// ticks — the -load path and the WAL replay sink. Nothing else would
// ever cut, and only a cut clears backpressure, so a refused batch cuts
// an epoch and goes again at once: the cut empties the backlog, and a
// batch of any size is admitted into an empty one.
func ingestAll(engine *live.Engine, recs []telemetry.ViewRecord) error {
	for {
		res, err := engine.Ingest(recs)
		if err != nil || res.Backpressured == 0 {
			return err
		}
		engine.Snapshot()
	}
}

// dumpGeneration writes a generation's records as JSON lines.
func dumpGeneration(g *live.Generation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := telemetry.EncodeJSONL(w, g.Dataset.All()); err != nil {
		_ = f.Close() // the encode error wins
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// How long one connection may spend in each phase, so a client that
// stalls — mid-header, mid-body, mid-response or between requests —
// gives its connection (and the pooled decoder a POST holds) back.
// net/http runs writeTimeout from the end of the request header, so it
// spans the body read and the handler (an ack's fsync, /v1/snapshot's
// cut and checkpoint) as well as the response.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// What no script, test, example or README invocation ever set, and so
// is not a flag: the shutdown drain deadline for in-flight requests,
// the span/event ring behind /v1/trace, and the sampler's cadence and
// the registry snapshots it retains for /v1/series. The backpressure
// hint and the WAL's segment size are live.Config's and wal.Options'
// defaults (500 ms, 16 MiB).
// The published generation's epoch and record count are not logged:
// they are live_generation_epoch and live_generation_records on
// /metrics, /v1/series and vmptop.
const (
	drainTimeout = 10 * time.Second
	traceDepth   = 2048
	sampleEvery  = time.Second
	seriesDepth  = 600
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}
