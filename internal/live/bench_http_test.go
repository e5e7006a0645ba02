package live

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// benchHTTPIngest measures the full wire path: encode one 2000-record
// batch (encoder state reused across ops, exactly like vmpgen's
// driver), POST it over a real loopback HTTP connection, decode it on
// the server, and admit it into the engine. One op = one batch landed
// with a 202. The engine and server are recycled every 100 ops outside
// the timer so accumulated records don't turn this into a memory
// benchmark. The spread between these variants and BenchmarkLiveIngest
// (in-process admission, no wire) is the wire gap EXPERIMENTS.md
// tracks.
func benchHTTPIngest(b *testing.B, binary, compress bool) {
	recs := genRecords(2000)

	var (
		enc   *wire.Encoder
		gz    *gzip.Writer
		buf   bytes.Buffer
		frame []byte
	)
	if binary {
		enc = wire.NewEncoder()
	}
	encode := func() []byte {
		buf.Reset()
		var w io.Writer = &buf
		if compress {
			if gz == nil {
				gz = gzip.NewWriter(&buf)
			} else {
				gz.Reset(&buf)
			}
			w = gz
		}
		if binary {
			var err error
			frame, err = enc.AppendFrame(frame[:0], recs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Write(frame); err != nil {
				b.Fatal(err)
			}
		} else if err := telemetry.EncodeJSONL(w, recs); err != nil {
			b.Fatal(err)
		}
		if compress {
			if err := gz.Close(); err != nil {
				b.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	contentType := wire.ContentTypeJSONL
	if binary {
		contentType = wire.ContentTypeBinary
	}

	var (
		e      *Engine
		srv    *httptest.Server
		client *http.Client
	)
	boot := func() {
		e = NewEngine(Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart)})
		srv = httptest.NewServer(NewServer(e).Handler())
		client = srv.Client()
	}
	shutdown := func() {
		srv.Close()
		e.Close()
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
			req.Header.Set("Content-Type", contentType)
			if compress {
				req.Header.Set("Content-Encoding", "gzip")
			}
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

// BenchmarkHTTPIngestJSONL is the pre-existing wire path: JSON lines,
// no compression — the 14× gap's "before" number.
func BenchmarkHTTPIngestJSONL(b *testing.B) { benchHTTPIngest(b, false, false) }

// BenchmarkHTTPIngestBinary posts binary batch frames.
func BenchmarkHTTPIngestBinary(b *testing.B) { benchHTTPIngest(b, true, false) }

// BenchmarkHTTPIngestBinaryGzip posts gzip-compressed binary frames —
// what a WAN sensor would send.
func BenchmarkHTTPIngestBinaryGzip(b *testing.B) { benchHTTPIngest(b, true, true) }

// BenchmarkHTTPIngestJSONLGzip compresses the JSONL fallback, isolating
// how much of the gzip cost is the encoding's verbosity.
func BenchmarkHTTPIngestJSONLGzip(b *testing.B) { benchHTTPIngest(b, false, true) }
