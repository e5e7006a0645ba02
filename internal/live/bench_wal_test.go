package live

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vmp/internal/simclock"
	"vmp/internal/wal"
	"vmp/internal/wire"
)

// benchHTTPIngestWAL is benchHTTPIngest's binary variant with a WAL
// attached: encode one 2000-record batch, POST it over loopback, admit
// it, and make it durable under the given fsync policy — the full
// acked-means-durable path a production daemon runs. Compared against
// BenchmarkHTTPIngestBinary (no WAL), the spread is the durability
// tax; fsync=off must sit within noise of that baseline, and interval
// (group commit) must hold at least half of it. BENCH_wal.json records
// the numbers.
func benchHTTPIngestWAL(b *testing.B, policy wal.Policy) {
	recs := genRecords(2000)
	enc := wire.NewEncoder()
	var frame []byte
	encode := func() []byte {
		var err error
		frame, err = enc.AppendFrame(frame[:0], recs)
		if err != nil {
			b.Fatal(err)
		}
		return frame
	}

	root := b.TempDir()
	var (
		e      *Engine
		wlog   *wal.Log
		srv    *httptest.Server
		client *http.Client
		gen    int
	)
	boot := func() {
		dir := filepath.Join(root, "wal-"+strconv.Itoa(gen))
		gen++
		var err error
		wlog, err = wal.Open(wal.Options{
			Dir:    dir,
			Policy: policy,
			Clock:  simclock.NewManual(simclock.StudyStart),
		})
		if err != nil {
			b.Fatal(err)
		}
		e = NewEngine(Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart), WAL: wlog})
		srv = httptest.NewServer(NewServer(e).Handler())
		client = srv.Client()
	}
	shutdown := func() {
		srv.Close()
		e.AttachWAL(nil) // the close-time epoch's checkpoint is not the append path under test
		e.Close()
		if err := wlog.Close(); err != nil {
			b.Fatal(err)
		}
		_ = os.RemoveAll(filepath.Join(root, "wal-"+strconv.Itoa(gen-1)))
	}
	boot()
	defer func() { shutdown() }()

	body := encode()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%100 == 0 {
			b.StopTimer()
			shutdown()
			boot()
			b.StartTimer()
		}
		body := encode()
		for {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/views", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				b.Fatalf("ingest status = %s", resp.Status)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkHTTPIngestWALBatch fsyncs inside every request — acked
// strictly implies durable, even against power loss.
func BenchmarkHTTPIngestWALBatch(b *testing.B) { benchHTTPIngestWAL(b, wal.PolicyBatch) }

// BenchmarkHTTPIngestWALInterval group-commits on the WAL's sync loop;
// requests pay only the write() syscall.
func BenchmarkHTTPIngestWALInterval(b *testing.B) { benchHTTPIngestWAL(b, wal.PolicyInterval) }

// BenchmarkHTTPIngestWALOff appends without ever fsyncing — the WAL's
// CPU-only overhead against BenchmarkHTTPIngestBinary.
func BenchmarkHTTPIngestWALOff(b *testing.B) { benchHTTPIngestWAL(b, wal.PolicyOff) }
