package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmp/internal/simclock"
)

// maxConns is how many connections the load generator may hold: the
// generator shares the machine with the server, so more connections
// than processors would measure the scheduler, not the plane.
const maxConns = 2

// checkConns refuses a generator wider than the machine.
func checkConns(n int) error {
	if cpus := runtime.NumCPU(); n > cpus {
		return fmt.Errorf("load generator wants %d connections but the machine has %d processors", n, cpus)
	}
	return nil
}

// client is the load generator's HTTP side: one transport capped at
// maxConns connections to the plane.
type client struct {
	http  *http.Client
	base  string
	clock simclock.Clock
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
			},
		},
		base:  base,
		clock: simclock.Wall(),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path string, set *bodySet, data []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if set != nil {
		req.Header.Set("Content-Type", set.contentType)
		if set.gzip {
			req.Header.Set("Content-Encoding", "gzip")
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, out, err
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	status, _, out, err := c.do(ctx, http.MethodGet, path, nil, nil)
	return status, out, err
}

// ackBody is the part of a /v1/views response the bench checks.
type ackBody struct {
	Accepted int `json:"accepted"`
}

// postStats is what a sequence of POSTs observed.
type postStats struct {
	latMS     []float64 // one per acked body, from the instant the caller names
	rttMS     []float64 // one per acked body, from the send of the attempt that was acked
	accepted  int64     // Σ accepted as the server reported it
	sent      int64     // records in acked bodies
	attempted int64     // POSTs sent, retries included
	failed    int64     // non-202 responses and transport errors
	retries   int64     // POSTs resent after a 429
}

func (s *postStats) merge(o *postStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.rttMS = append(s.rttMS, o.rttMS...)
	s.accepted += o.accepted
	s.sent += o.sent
	s.attempted += o.attempted
	s.failed += o.failed
	s.retries += o.retries
}

// maxRetries bounds how often one body is resent after a 429 before
// the run gives up on it.
const maxRetries = 20

// post sends one body until it is acked, resending after a 429 the way
// a sensor would. Every non-202 answer counts as a failure even when a
// retry then succeeds: the workloads are sized so the plane never has
// to refuse. from is the instant latency is measured from (the send
// time in a closed loop, the due time in an open one).
func (c *client) post(ctx context.Context, set *bodySet, b body, from time.Time, st *postStats) error {
	for try := 0; ; try++ {
		st.attempted++
		sent := c.clock.Now()
		status, hdr, out, err := c.do(ctx, http.MethodPost, "/v1/views", set, b.data)
		if err != nil {
			st.failed++
			return fmt.Errorf("POST /v1/views: %w", err)
		}
		if status == http.StatusAccepted {
			var ack ackBody
			if err := json.Unmarshal(out, &ack); err != nil {
				st.failed++
				return fmt.Errorf("POST /v1/views: bad 202 body %q", out)
			}
			now := c.clock.Now()
			st.latMS = append(st.latMS, ms(now.Sub(from)))
			st.rttMS = append(st.rttMS, ms(now.Sub(sent)))
			st.accepted += int64(ack.Accepted)
			st.sent += int64(b.records)
			return nil
		}
		st.failed++
		if status != http.StatusTooManyRequests || try >= maxRetries {
			return fmt.Errorf("POST /v1/views: status %d: %s", status, bytes.TrimSpace(out))
		}
		st.retries++
		secs, _ := strconv.Atoi(hdr.Get("Retry-After"))
		if err := simclock.Wait(ctx, time.Duration(max(secs, 1))*time.Second); err != nil {
			return err
		}
	}
}

// closedLoop posts bodies over conns connections, each sending its
// next body only after the previous one was acked. It returns what
// was observed and how long the whole sequence took.
func (c *client) closedLoop(ctx context.Context, set *bodySet, bodies []body, conns int) (*postStats, time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	stats := make([]postStats, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := c.clock.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= len(bodies) {
					return
				}
				if err := c.post(ctx, set, bodies[n], c.clock.Now(), &stats[i]); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := c.clock.Now().Sub(start)
	total := &postStats{}
	for i := range stats {
		total.merge(&stats[i])
	}
	for _, err := range errs {
		if err != nil {
			return total, elapsed, err
		}
	}
	return total, elapsed, ctx.Err()
}

// openLoop calls fn once per tick of a fixed schedule — request i is
// due at start + i·every — for n requests, regardless of how long
// earlier requests took. fn receives the due time, so latency counts
// the wait a stall imposes on the requests behind it. It returns how
// late the generator sent its latest request. The clock and the wait
// are parameters so a manual clock can drive the schedule in tests.
func openLoop(ctx context.Context, clock simclock.Clock, wait func(context.Context, time.Duration) error,
	every time.Duration, n int, fn func(i int, due time.Time) error) (maxLate time.Duration, err error) {
	start := clock.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * every)
		if d := due.Sub(clock.Now()); d > 0 {
			if err := wait(ctx, d); err != nil {
				return maxLate, err
			}
		}
		if late := clock.Now().Sub(due); late > maxLate {
			maxLate = late
		}
		if err := fn(i, due); err != nil {
			return maxLate, err
		}
	}
	return maxLate, nil
}
