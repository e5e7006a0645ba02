package wire_test

import (
	"context"
	"net/http"
	"net/http/httptest"
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
