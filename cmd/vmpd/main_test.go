package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// TestSinksCutInsteadOfWaiting: the boot-time sinks run before anything
// else cuts, so at the backlog ceiling they cut. A depth-one engine
// (16 384 un-cut records) takes a replay-shaped run of chunks past its
// ceiling, then -loads a file larger than the ceiling on top of that
// backlog, and publishes every record.
func TestSinksCutInsteadOfWaiting(t *testing.T) {
	recs := make([]telemetry.ViewRecord, 37000)
	for i := range recs {
		recs[i] = telemetry.ViewRecord{
			Timestamp: simclock.DayTime(i % 50),
			Publisher: fmt.Sprintf("pub-%02d", i%17),
			VideoID:   fmt.Sprintf("v-%05d", i),
			URL:       "http://cdn/a.m3u8",
			Device:    "Roku",
			CDNs:      []string{"A"},
			ViewSec:   60,
			Weight:    1,
		}
	}
	const replayed = 20000
	path := filepath.Join(t.TempDir(), "views.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.EncodeJSONL(f, recs[replayed:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	engine := live.NewEngine(live.Config{QueueDepth: 1, Clock: simclock.NewManual(simclock.StudyStart)})
	defer engine.Close()
	for lo := 0; lo < replayed; lo += 4000 { // the fifth chunk crosses the ceiling and is admitted whole
		if err := ingestAll(engine, recs[lo:lo+4000]); err != nil {
			t.Fatal(err)
		}
	}
	if g := engine.Generation(); g.Epoch != 0 {
		t.Fatalf("epoch %d before any batch was refused", g.Epoch)
	}
	n, err := preload(engine, path)
	if err != nil || n != len(recs)-replayed {
		t.Fatalf("preload = %d, %v, want %d records", n, err, len(recs)-replayed)
	}
	if g := engine.Generation(); g.Epoch != 1 || g.Records != replayed {
		t.Fatalf("after the load: epoch %d with %d records, want the one cut that made room, over the %d replayed", g.Epoch, g.Records, replayed)
	}
	if got := engine.Metrics().Counter("live_ingest_backpressured_total").Load(); got != int64(n) {
		t.Fatalf("backpressured = %d, want the file refused once (%d)", got, n)
	}
	if g := engine.Snapshot(); g.Records != len(recs) {
		t.Fatalf("published %d records, want %d", g.Records, len(recs))
	}
}

// TestHTTPServerBoundsEveryPhase: a zero timeout is "wait forever", so
// none of the four may be left unset.
func TestHTTPServerBoundsEveryPhase(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Fatalf("server built for %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded phase: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout < srv.ReadTimeout {
		t.Fatalf("write timeout %v runs from the end of the header and must outlast the body read (%v)", srv.WriteTimeout, srv.ReadTimeout)
	}
}
