// Command vmpgen generates the synthetic view-record dataset as JSON
// lines — the wire format vmpd ingests and ReadDataset parses. With
// -post it doubles as the load driver for the live serving plane:
// instead of (or besides) writing a file, it streams the dataset to a
// vmpd ingest endpoint in batches, honoring its refusals (429 backlog
// full, 503 WAL append failed) by waiting out the Retry-After hint and
// retrying the identical batch. -encode binary posts the compact binary batch
// frames (internal/wire) instead of JSONL, and -compress gzips either
// encoding on the wire.
//
// Usage:
//
//	vmpgen -o views.jsonl                        # full 27-month dataset
//	vmpgen -stride 8 | head                      # thinned, to stdout
//	vmpgen -stride 24 -post http://localhost:8474 -encode binary -compress
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"vmp"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 0, "population seed (0 = default)")
		stride     = flag.Int("stride", 1, "use every k-th snapshot (1 = full study)")
		out        = flag.String("o", "", "output file (default stdout; with -post, default none)")
		post       = flag.String("post", "", "base URL of a vmpd to stream the dataset to (its /v1/views)")
		postBatch  = flag.Int("post-batch", 2000, "records per POST batch")
		postTries  = flag.Int("post-retries", 100, "max retries per batch on a 429 or 503")
		postVerify = flag.Bool("post-verify", false, "after -post, check the server's /v1/metrics ingest counter covers every posted record")
		encoding   = flag.String("encode", "jsonl", "POST body encoding: jsonl or binary")
		compress   = flag.Bool("compress", false, "gzip-compress POST bodies (Content-Encoding: gzip)")
		acked      = flag.String("acked", "", "with -post: append each 202-acknowledged batch to this JSONL file before posting the next (crash-test ledger)")
	)
	flag.Parse()

	study := vmp.New(vmp.Config{Seed: *seed, SnapshotStride: *stride})

	if *out != "" || *post == "" {
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			bw := bufio.NewWriterSize(f, 1<<20)
			if err := vmp.WriteDataset(study, bw); err != nil {
				fatal(err)
			}
			// Flush and close errors lose tail records, so they are
			// fatal like any other write error.
			if err := bw.Flush(); err != nil {
				_ = f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		} else if err := vmp.WriteDataset(study, w); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vmpgen: wrote %d records\n", study.Store().Len())
	}

	if *post != "" {
		recs := study.Store().All()
		d, err := newDriver(*encoding, *compress, *seed)
		if err != nil {
			fatal(err)
		}
		if *acked != "" {
			// Unbuffered on purpose: each acknowledged batch must be on
			// disk before the next POST, so when a crash test kills the
			// server mid-stream the ledger is an exact record of what
			// the server took responsibility for.
			f, err := os.Create(*acked)
			if err != nil {
				fatal(err)
			}
			d.acked = f
			defer func() {
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}()
		}
		if err := d.drive(context.Background(), *post, recs, *postBatch, *postTries); err != nil {
			fatal(err)
		}
		if *postVerify {
			if err := verifyIngest(*post, int64(len(recs))); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "vmpgen: verified: server ingest counter covers all %d posted records\n", len(recs))
		}
	}
}

// verifyIngest reads vmpd's /v1/metrics snapshot and checks its ingest
// counter accounts for every record this driver posted: ≥ rather than
// == because other drivers may have posted concurrently.
func verifyIngest(url string, posted int64) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("verify: GET /v1/metrics: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("verify: decoding /v1/metrics: %w", err)
	}
	n, ok := snap.Counters["live_ingest_records_total"]
	if !ok {
		return fmt.Errorf("verify: no live_ingest_records_total in /v1/metrics snapshot")
	}
	if n < posted {
		return fmt.Errorf("verify: live_ingest_records_total is %d, expected >= %d", n, posted)
	}
	return nil
}

// driver streams a dataset to an ingest endpoint through the module's
// ingest client (wire.Client), which owns the encoding, the content
// negotiation and the 429 retry loop; the driver adds the batching,
// the acked ledger and the client-side latency summary. Tests replace
// client.Wait, the backpressure sleep, with a counter to drive retries
// without real delays.
type driver struct {
	client *wire.Client
	label  string // "jsonl", "binary+gzip", …: the encoding, for the exit line
	clock  simclock.Clock
	acked  io.Writer // when set, every 202-acked batch is appended as JSONL

	// rtts collects every POST attempt's round-trip time (202s and
	// 429s alike) and waited the total Retry-After sleep, for the
	// client-side latency summary drive prints at exit.
	rtts   []time.Duration
	waited time.Duration
}

func newDriver(encoding string, compress bool, seed uint64) (*driver, error) {
	if encoding != "jsonl" && encoding != "binary" {
		return nil, fmt.Errorf("vmpgen: unknown -encode %q (want jsonl or binary)", encoding)
	}
	d := &driver{label: encoding, clock: simclock.Wall()}
	if compress {
		d.label += "+gzip"
	}
	d.client = wire.NewClient(&http.Client{Timeout: 30 * time.Second}, encoding == "binary", compress, int64(seed))
	d.client.Attempt = func(rtt time.Duration) { d.rtts = append(d.rtts, rtt) }
	d.client.Wait = func(ctx context.Context, hint time.Duration) error {
		d.waited += hint
		return simclock.Wait(ctx, hint)
	}
	return d, nil
}

// drive streams recs to url's /v1/views endpoint in batches. Each batch
// is encoded once and sent until the server takes it: a 429 (the un-cut
// backlog is full) is retried unchanged after the Retry-After hint, at
// most retries times — see wire.Client.Send for the contract.
func (d *driver) drive(ctx context.Context, url string, recs []telemetry.ViewRecord, batch, retries int) error {
	if batch <= 0 {
		batch = 2000
	}
	start := d.clock.Now()
	posted, refused := 0, 0
	for lo := 0; lo < len(recs); lo += batch {
		hi := lo + batch
		if hi > len(recs) {
			hi = len(recs)
		}
		body, err := d.client.Encode(recs[lo:hi])
		if err != nil {
			return err
		}
		denied, err := d.client.Send(ctx, url+"/v1/views", body, retries)
		refused += denied
		if err != nil {
			return fmt.Errorf("batch at record %d: %w", lo, err)
		}
		if d.acked != nil {
			if err := telemetry.EncodeJSONL(d.acked, recs[lo:hi]); err != nil {
				return fmt.Errorf("acked ledger: %w", err)
			}
		}
		posted += hi - lo
	}
	elapsed := d.clock.Now().Sub(start)
	fmt.Fprintf(os.Stderr, "vmpgen: posted %d records in %v (%.0f records/s, %d refusals waited out, %s)\n",
		posted, elapsed.Round(time.Millisecond), float64(posted)/elapsed.Seconds(), refused, d.label)
	fmt.Fprintln(os.Stderr, "vmpgen: "+d.latencySummary(refused))
	return nil
}

// latencySummary renders the client-side view of the ingest SLO: exact
// (not bucketed) quantiles over every POST round-trip this drive made,
// plus the retry count and total Retry-After time waited out. The
// server's /metrics histograms measure arrival→202; this measures what
// a publisher's sensor would actually experience, queueing and
// transport included.
func (d *driver) latencySummary(retries int) string {
	if len(d.rtts) == 0 {
		return "post latency: no posts"
	}
	sorted := append([]time.Duration(nil), d.rtts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return fmt.Sprintf("post latency p50 %v p90 %v p99 %v max %v over %d posts (%d retries, %v waiting on Retry-After)",
		quantileDur(sorted, 0.50), quantileDur(sorted, 0.90), quantileDur(sorted, 0.99),
		sorted[len(sorted)-1], len(sorted), retries, d.waited.Round(time.Millisecond))
}

// quantileDur returns the q-th exact sample quantile of an ascending
// slice (nearest-rank: the smallest element ≥ a fraction q of the
// samples). Empty input returns 0; q outside [0,1] clamps.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmpgen:", err)
	os.Exit(1)
}
