// Command vmptop is the operator's live view of a vmpd daemon: it
// polls the /v1/series flight recorder and renders a compact terminal
// dashboard — ingest rate, pending batches, epoch cadence, WAL backlog,
// latency quantiles, and Go runtime health — refreshing in place on
// every poll.
//
// Usage:
//
//	vmptop -addr http://127.0.0.1:8474
//	vmptop -addr http://127.0.0.1:8474 -every 2s
//	vmptop -addr http://127.0.0.1:8474 -once
//
// All numbers come from the daemon's own self-measurement plane: the
// sampler goroutine inside the daemon records registry snapshots into
// a ring, /v1/series serves the retained window with per-counter
// rates, and vmptop only formats the latest point — it takes no
// measurements of its own, so what it shows is exactly what /metrics
// exports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
)

func main() {
	var (
		addr  = flag.String("addr", "http://127.0.0.1:8474", "daemon base URL")
		every = flag.Duration("every", time.Second, "poll cadence")
		once  = flag.Bool("once", false, "render one frame and exit")
	)
	flag.Parse()
	log.SetFlags(0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &http.Client{Timeout: 10 * time.Second}
	url := strings.TrimRight(*addr, "/") + "/v1/series"
	for {
		frame, err := renderOnce(ctx, client, url)
		if err != nil {
			if *once {
				log.Fatal(fmt.Errorf("vmptop: %w", err))
			}
			frame = fmt.Sprintf("vmptop: %v (retrying)\n", err)
		}
		if *once {
			fmt.Print(frame)
			return
		}
		// Clear and home between frames so the dashboard redraws in
		// place instead of scrolling.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		if err := simclock.Wait(ctx, *every); err != nil {
			fmt.Println()
			return
		}
	}
}

// renderOnce fetches the series and formats the latest point.
func renderOnce(ctx context.Context, client *http.Client, url string) (string, error) {
	snap, err := fetchSeries(ctx, client, url)
	if err != nil {
		return "", err
	}
	if len(snap.Points) == 0 {
		return "vmptop: no samples yet (is the daemon's sampler running?)\n", nil
	}
	return render(url, snap), nil
}

// fetchSeries GETs and decodes one /v1/series snapshot.
func fetchSeries(ctx context.Context, client *http.Client, url string) (*obs.SeriesSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s returned %s", url, resp.Status)
	}
	var snap obs.SeriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &snap, nil
}

// render formats the latest point of a series as one dashboard frame.
func render(url string, snap *obs.SeriesSnapshot) string {
	p := snap.Points[len(snap.Points)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "vmptop  %s  sample %d/%d  %s\n\n",
		url, p.Seq, snap.SamplesTotal, p.Time)

	fmt.Fprintf(&b, "ingest    %s rec/s   acked %d   backpressured %d   rejected %d\n",
		fmtRate(p.Rates["live_ingest_records_total"]),
		p.Counters["live_ingest_records_total"],
		p.Counters["live_ingest_backpressured_total"],
		p.Counters["live_ingest_rejected_total"])

	if depth, ok := p.Gauges["live_queue_depth_batches"]; ok {
		fmt.Fprintf(&b, "pending   %d batches awaiting the next cut\n", depth)
		fmt.Fprintf(&b, "epochs    epoch %d   %s cuts/s   generation %d records, age %s\n",
			p.Gauges["live_generation_epoch"],
			fmtRate(p.Rates["live_snapshots_total"]),
			p.Gauges["live_generation_records"],
			(time.Duration(p.Gauges["live_generation_age_ms"]) * time.Millisecond).String())
	}
	if segs, ok := p.Gauges["wal_backlog_segments"]; ok {
		fmt.Fprintf(&b, "wal       %d segments, %s backlog   %s fsync/s\n",
			segs, fmtBytes(p.Gauges["wal_backlog_bytes"]), fmtRate(p.Rates["wal_fsync_total"]))
	}

	b.WriteByte('\n')
	for _, row := range []struct{ label, hist string }{
		{"ack jsonl ", "live_ingest_ack_jsonl_seconds"},
		{"ack binary", "live_ingest_ack_binary_seconds"},
		{"wal fsync ", "wal_fsync_seconds"},
		{"epoch cut ", "live_snapshot_seconds"},
		{"q.share   ", "live_query_share_seconds"},
		{"q.top     ", "live_query_top-publishers_seconds"},
		{"q.window  ", "live_query_window_seconds"},
	} {
		h, ok := p.Hists[row.hist]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s  n %-8d p50 %-9s p90 %-9s p99 %-9s p99.9 %s\n",
			row.label, h.Count,
			fmtSec(h.P50), fmtSec(h.P90), fmtSec(h.P99), fmtSec(h.P999))
	}

	fmt.Fprintf(&b, "\nruntime   heap %s (%d objects)   goroutines %d   gc %d runs, %s paused\n",
		fmtBytes(p.Gauges["go_heap_alloc_bytes"]), p.Gauges["go_heap_objects"],
		p.Gauges["go_goroutines"], p.Gauges["go_gc_runs"],
		(time.Duration(p.Gauges["go_gc_pause_total_ns"]) * time.Nanosecond).String())
	return b.String()
}

// fmtRate renders a per-second rate with enough precision for both
// idle daemons (0.2 cuts/s) and saturated ones (500k rec/s).
func fmtRate(v float64) string {
	switch {
	case v >= 1000000:
		return fmt.Sprintf("%.1fM", v/1000000)
	case v >= 1000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtBytes renders a byte count in binary units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// fmtSec renders a latency quantile (in seconds) at a readable scale.
func fmtSec(v float64) string {
	d := time.Duration(v * float64(time.Second))
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return d.String()
	}
}
