// Command vmpgen generates the synthetic view-record dataset as JSON
// lines — the wire format the collector ingests and ReadDataset
// parses. With -post it doubles as the load driver for the live
// serving plane: instead of (or besides) writing a file, it streams
// the dataset to a vmpd or vmpcollector ingest endpoint in batches,
// honoring 429 backpressure responses by waiting out the server's
// Retry-After hint and retrying the identical batch. -encode binary
// posts the compact binary batch frames (internal/wire) instead of
// JSONL, and -compress gzips either encoding on the wire.
//
// Usage:
//
//	vmpgen -o views.jsonl                        # full 27-month dataset
//	vmpgen -stride 8 | head                      # thinned, to stdout
//	vmpgen -stride 24 -post http://localhost:8474 -encode binary -compress
package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
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
		post       = flag.String("post", "", "base URL of a /v1/views ingest endpoint to stream the dataset to")
		postBatch  = flag.Int("post-batch", 2000, "records per POST batch")
		postTries  = flag.Int("post-retries", 100, "max retries per batch on backpressure")
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

// verifyIngest reads the server's /v1/metrics snapshot and checks its
// ingest counter accounts for every record this driver posted. It
// accepts either daemon's counter name (vmpd's live engine or the
// plain collector), and ≥ rather than == because other drivers may
// have posted concurrently.
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
	for _, name := range []string{"live_ingest_records_total", "collector_ingested_total"} {
		if n, ok := snap.Counters[name]; ok {
			if n >= posted {
				return nil
			}
			return fmt.Errorf("verify: %s is %d, expected >= %d", name, n, posted)
		}
	}
	return fmt.Errorf("verify: no ingest counter in /v1/metrics snapshot")
}

// batchEncoder turns record batches into POST bodies. One buffer and
// one wire encoder are reused for every batch of the drive, and each
// batch is encoded exactly once no matter how many times backpressure
// makes the driver retry it — the retry loop reuses the encoded bytes.
// encodes counts encode calls so the tests can pin that contract.
type batchEncoder struct {
	binary   bool
	compress bool
	buf      bytes.Buffer
	gz       *gzip.Writer
	enc      *wire.Encoder
	frame    []byte
	encodes  int
}

func newBatchEncoder(encoding string, compress bool) (*batchEncoder, error) {
	be := &batchEncoder{compress: compress}
	switch encoding {
	case "jsonl":
	case "binary":
		be.binary = true
		be.enc = wire.NewEncoder()
	default:
		return nil, fmt.Errorf("vmpgen: unknown -encode %q (want jsonl or binary)", encoding)
	}
	return be, nil
}

// contentType returns the Content-Type the encoding negotiates.
func (be *batchEncoder) contentType() string {
	if be.binary {
		return wire.ContentTypeBinary
	}
	return wire.ContentTypeJSONL
}

// encode renders one batch. The returned bytes alias the encoder's
// buffer and are valid until the next encode call.
func (be *batchEncoder) encode(recs []telemetry.ViewRecord) ([]byte, error) {
	be.encodes++
	be.buf.Reset()
	var w io.Writer = &be.buf
	if be.compress {
		if be.gz == nil {
			be.gz = gzip.NewWriter(&be.buf)
		} else {
			be.gz.Reset(&be.buf)
		}
		w = be.gz
	}
	if be.binary {
		var err error
		be.frame, err = be.enc.AppendFrame(be.frame[:0], recs)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(be.frame); err != nil {
			return nil, err
		}
	} else if err := telemetry.EncodeJSONL(w, recs); err != nil {
		return nil, err
	}
	if be.compress {
		// Close flushes the gzip trailer; losing it truncates the body.
		if err := be.gz.Close(); err != nil {
			return nil, err
		}
	}
	return be.buf.Bytes(), nil
}

// driver streams a dataset to an ingest endpoint. The wait hook is
// the backpressure sleep (simclock.Wait in production); tests inject
// a counter to drive retries without real delays.
type driver struct {
	be     *batchEncoder
	client *http.Client
	jitter *rand.Rand
	clock  simclock.Clock
	wait   func(context.Context, time.Duration) error
	acked  io.Writer // when set, every 202-acked batch is appended as JSONL

	// retryAfterHint is the wait post computed from the last 429
	// response, kept here so drive's retry loop stays free of response
	// plumbing.
	retryAfterHint time.Duration

	// rtts collects every POST attempt's round-trip time (202s and
	// 429s alike) and waited the total Retry-After sleep, for the
	// client-side latency summary drive prints at exit.
	rtts   []time.Duration
	waited time.Duration
}

func newDriver(encoding string, compress bool, seed uint64) (*driver, error) {
	be, err := newBatchEncoder(encoding, compress)
	if err != nil {
		return nil, err
	}
	return &driver{
		be:     be,
		client: &http.Client{Timeout: 30 * time.Second},
		jitter: rand.New(rand.NewSource(int64(seed))),
		clock:  simclock.Wall(),
		wait:   simclock.Wait,
	}, nil
}

// drive streams recs to url's /v1/views endpoint in batches. A 429
// means the server's ingest queue is full; the batch is retried
// unchanged after the Retry-After hint — admission is atomic on the
// server, so retries never duplicate records, and the body was
// encoded once before the first attempt, so retries cost no encode
// work. The hint is capped (a confused server cannot stall the driver
// for minutes at a time) and jittered from a seeded generator, so
// concurrent drivers desynchronize without run-to-run nondeterminism;
// the wait itself rides ctx and aborts when the caller is cancelled.
func (d *driver) drive(ctx context.Context, url string, recs []telemetry.ViewRecord, batch, retries int) error {
	if batch <= 0 {
		batch = 2000
	}
	start := d.clock.Now()
	posted, backpressured := 0, 0
	for lo := 0; lo < len(recs); lo += batch {
		hi := lo + batch
		if hi > len(recs) {
			hi = len(recs)
		}
		body, err := d.be.encode(recs[lo:hi])
		if err != nil {
			return err
		}
		for attempt := 0; ; attempt++ {
			attemptStart := d.clock.Now()
			status, err := d.post(ctx, url, body)
			if err != nil {
				return err
			}
			d.rtts = append(d.rtts, d.clock.Now().Sub(attemptStart))
			if status == http.StatusAccepted {
				if d.acked != nil {
					if err := telemetry.EncodeJSONL(d.acked, recs[lo:hi]); err != nil {
						return fmt.Errorf("acked ledger: %w", err)
					}
				}
				posted += hi - lo
				break
			}
			if status != http.StatusTooManyRequests {
				return fmt.Errorf("POST /v1/views: status %d", status)
			}
			backpressured++
			if attempt >= retries {
				return fmt.Errorf("batch at record %d still backpressured after %d retries", lo, retries)
			}
			d.waited += d.retryAfterHint
			if err := d.wait(ctx, d.retryAfterHint); err != nil {
				return err
			}
		}
	}
	elapsed := d.clock.Now().Sub(start)
	fmt.Fprintf(os.Stderr, "vmpgen: posted %d records in %v (%.0f records/s, %d backpressure waits, %s%s)\n",
		posted, elapsed.Round(time.Millisecond), float64(posted)/elapsed.Seconds(), backpressured,
		map[bool]string{true: "binary", false: "jsonl"}[d.be.binary],
		map[bool]string{true: "+gzip", false: ""}[d.be.compress])
	fmt.Fprintln(os.Stderr, "vmpgen: "+d.latencySummary(backpressured))
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

// post sends one encoded batch and returns the status code. On a 429
// it parses the Retry-After hint into d.retryAfterHint.
func (d *driver) post(ctx context.Context, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/views", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", d.be.contentType())
	if d.be.compress {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		d.retryAfterHint = retryAfter(resp, d.jitter)
	}
	return resp.StatusCode, nil
}

// retryAfterCap bounds how long a single Retry-After hint can stall
// the driver; a server hinting longer is simply retried sooner.
const retryAfterCap = 5 * time.Second

// retryAfter extracts the server's Retry-After hint (whole seconds per
// RFC 9110), defaulting to half a second, capping at retryAfterCap,
// and adding up to 25% seeded jitter so retry storms decorrelate.
func retryAfter(resp *http.Response, jitter *rand.Rand) time.Duration {
	d := 500 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > retryAfterCap {
		d = retryAfterCap
	}
	return d + time.Duration(jitter.Int63n(int64(d)/4+1))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmpgen:", err)
	os.Exit(1)
}
