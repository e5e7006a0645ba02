package wire

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
)

// Client is the sending half of the ingest content negotiation — what
// DecodeBody is the receiving half of — and the one ingest client in
// the module: vmpgen's load driver and telemetry.Sensor both post
// through it. Encode renders a batch into a POST body once; Send posts
// those bytes until the server takes them, waiting out each 429's or
// 503's Retry-After hint. One buffer, one gzip writer and one frame
// encoder are reused for every batch. A Client is not safe for
// concurrent use.
type Client struct {
	// Wait is the backpressure sleep: simclock.Wait unless replaced
	// (tests count calls instead of sleeping).
	Wait func(context.Context, time.Duration) error
	// Attempt, when set, is told every POST's round-trip time, whatever
	// the status.
	Attempt func(rtt time.Duration)
	// Encodes counts Encode calls, so tests can pin that a batch is
	// encoded once however often backpressure makes Send repeat it.
	Encodes int

	http     *http.Client
	clock    simclock.Clock
	jitter   *rand.Rand
	binary   bool
	compress bool
	buf      bytes.Buffer
	gz       *gzip.Writer
	enc      *Encoder
	frame    []byte
}

// NewClient returns a client posting through hc (nil means
// http.DefaultClient): binary batch frames or JSONL, gzip'd on the
// wire when compress is set. seed drives the retry jitter, so
// concurrent clients given different seeds desynchronize without
// run-to-run nondeterminism.
func NewClient(hc *http.Client, binary, compress bool, seed int64) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{
		Wait:     simclock.Wait,
		http:     hc,
		clock:    simclock.Wall(),
		jitter:   rand.New(rand.NewSource(seed)),
		binary:   binary,
		compress: compress,
	}
	if binary {
		c.enc = NewEncoder()
	}
	return c
}

// Encode renders one batch as a request body. The returned bytes alias
// the client's buffer and are valid until the next Encode call.
func (c *Client) Encode(recs []record.ViewRecord) ([]byte, error) {
	c.Encodes++
	c.buf.Reset()
	var w io.Writer = &c.buf
	if c.compress {
		if c.gz == nil {
			c.gz = gzip.NewWriter(&c.buf)
		} else {
			c.gz.Reset(&c.buf)
		}
		w = c.gz
	}
	if c.binary {
		var err error
		c.frame, err = c.enc.AppendFrame(c.frame[:0], recs)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(c.frame); err != nil {
			return nil, err
		}
	} else if err := EncodeJSONL(w, recs); err != nil {
		return nil, err
	}
	if c.compress {
		// Close flushes the gzip trailer; losing it truncates the body.
		if err := c.gz.Close(); err != nil {
			return nil, err
		}
	}
	return c.buf.Bytes(), nil
}

// Send posts body — one Encode's bytes — to url until the server
// acknowledges it with a 202, and returns how many refusals that took.
// A 429 means the server's un-cut backlog is at its ceiling, a 503 that
// its WAL append failed (or that it is shutting down); either way nothing of
// the batch was admitted — admission is whole-batch on the server, so a
// retry never duplicates records — and the identical bytes are resent
// after the Retry-After hint, at most retries times. The wait rides ctx
// and aborts when the caller is cancelled. Any other status, or a
// transport failure, is an error and nothing was delivered.
func (c *Client) Send(ctx context.Context, url string, body []byte, retries int) (denied int, err error) {
	for {
		start := c.clock.Now()
		status, hint, err := c.post(ctx, url, body)
		if err != nil {
			return denied, err
		}
		if c.Attempt != nil {
			c.Attempt(c.clock.Now().Sub(start))
		}
		if status == http.StatusAccepted {
			return denied, nil
		}
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return denied, fmt.Errorf("wire: POST %s: status %d", url, status)
		}
		if denied++; denied > retries {
			return denied, fmt.Errorf("wire: POST %s: still refused (status %d) after %d retries", url, status, retries)
		}
		if err := c.Wait(ctx, hint); err != nil {
			return denied, err
		}
	}
}

// post sends one encoded batch and returns the status code and, on a
// 429 or 503, how long the server asked the client to stay away.
func (c *Client) post(ctx context.Context, url string, body []byte) (status int, hint time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if c.binary {
		req.Header.Set("Content-Type", ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", ContentTypeJSONL)
	}
	if c.compress {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	// Drain so the connection can be reused; neither the drain nor the
	// close can lose data we care about.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		hint = retryAfter(resp, c.jitter)
	}
	return resp.StatusCode, hint, nil
}

// retryAfterCap bounds how long a single Retry-After hint can stall
// the client; a server hinting longer is simply retried sooner.
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
