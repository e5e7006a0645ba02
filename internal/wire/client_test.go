package wire_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vmp/internal/wire"
)

// TestClientRetries503 holds Send to the server's own contract: a 503
// (a failed WAL append admitted nothing) is waited out and resent
// exactly like a 429, within the same bound.
func TestClientRetries503(t *testing.T) {
	for _, c := range []struct {
		name       string
		failFirst  int64 // answer 503 to this many POSTs, then 202
		wantDenied int
		wantErr    bool
	}{
		{"once then accepted", 1, 1, false},
		{"always", 1 << 30, 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var posts atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if posts.Add(1) <= c.failFirst {
					http.Error(w, "live: wal append: disk full", http.StatusServiceUnavailable)
					return
				}
				w.WriteHeader(http.StatusAccepted)
			}))
			defer srv.Close()
			client := wire.NewClient(srv.Client(), true, false, 1)
			waits := 0
			client.Wait = func(context.Context, time.Duration) error { waits++; return nil }
			body, err := client.Encode(genRecords(3))
			if err != nil {
				t.Fatal(err)
			}
			const retries = 3
			denied, err := client.Send(context.Background(), srv.URL, body, retries)
			if denied != c.wantDenied || (err != nil) != c.wantErr {
				t.Fatalf("Send: denied %d, err %v; want denied %d, error %v", denied, err, c.wantDenied, c.wantErr)
			}
			if wantWaits := min(c.wantDenied, retries); waits != wantWaits || posts.Load() != int64(wantWaits+1) {
				t.Fatalf("%d waits, %d posts; want %d and %d", waits, posts.Load(), wantWaits, wantWaits+1)
			}
		})
	}
}

// TestClientSendStopsWhenCancelled: the Retry-After wait rides the
// caller's ctx. A caller cancelled while the server keeps answering 429
// with a long hint gets its error back at once, not after the hint (or
// the retry budget) runs out.
func TestClientSendStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := wire.NewClient(srv.Client(), true, false, 1)
	client.Attempt = func(time.Duration) { cancel() } // the 429 is in; the wait is next
	body, err := client.Encode(genRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Send(ctx, srv.URL, body, 100)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Send returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send still waiting out a 5 s Retry-After 2 s after its caller was cancelled")
	}
}

// TestClientJitterIsSeeded: the retry jitter comes from the seed given
// to NewClient, so two clients with one seed wait the same sequence of
// hints (runs are reproducible) and a different seed waits another.
func TestClientJitterIsSeeded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "4")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	waits := func(seed int64) []time.Duration {
		client := wire.NewClient(srv.Client(), true, false, seed)
		var got []time.Duration
		client.Wait = func(_ context.Context, d time.Duration) error { got = append(got, d); return nil }
		body, err := client.Encode(genRecords(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Send(context.Background(), srv.URL, body, 8); err == nil {
			t.Fatal("Send succeeded against a server that only refuses")
		}
		return got
	}
	a, b, c := waits(7), waits(7), waits(8)
	if len(a) != 8 || !slices.Equal(a, b) {
		t.Fatalf("seed 7 waited %v, then %v; want the same 8 hints", a, b)
	}
	if slices.Equal(a, c) {
		t.Fatalf("seeds 7 and 8 waited the same %v", a)
	}
}
