package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// genRecords builds a small deterministic batch for driver tests.
func genRecords(n int) []telemetry.ViewRecord {
	base := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]telemetry.ViewRecord, n)
	for i := range recs {
		recs[i] = telemetry.ViewRecord{
			Timestamp: base.Add(time.Duration(i) * 41 * time.Second),
			Publisher: "pub-" + string(rune('a'+i%5)),
			VideoID:   "vid",
			URL:       "https://cdn.example/v.m3u8",
			Device:    "Mobile",
			CDNs:      []string{"cdn-a", "cdn-b"},
			Bitrates:  []int{400, 1200},
			ViewSec:   30 + float64(i),
			Weight:    1,
		}
	}
	return recs
}

// backpressureServer answers every batch with a fixed number of 429s
// before accepting it, recording each body it sees.
type backpressureServer struct {
	mu       sync.Mutex
	denials  int
	pending  map[string]int // body -> 429s issued so far
	bodies   [][]byte
	accepted int
}

func (b *backpressureServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		body := buf.String()
		b.bodies = append(b.bodies, append([]byte(nil), buf.Bytes()...))
		if b.pending == nil {
			b.pending = map[string]int{}
		}
		if b.pending[body] < b.denials {
			b.pending[body]++
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		b.accepted++
		w.WriteHeader(http.StatusAccepted)
	}
}

// newTestDriver returns a driver whose backpressure wait is a no-delay
// counter, so retry paths run instantly.
func newTestDriver(t *testing.T, encoding string, compress bool, waits *int) *driver {
	t.Helper()
	d, err := newDriver(encoding, compress, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.client.Wait = func(ctx context.Context, _ time.Duration) error {
		*waits++
		return ctx.Err()
	}
	return d
}

// TestDriveEncodesOncePerBatch pins the retry contract: a batch is
// encoded exactly once no matter how many 429s it takes to land, and
// every retry resends byte-identical bytes.
func TestDriveEncodesOncePerBatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		encoding string
		compress bool
	}{
		{"jsonl", "jsonl", false},
		{"binary", "binary", false},
		{"binary_gzip", "binary", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bp := &backpressureServer{denials: 2}
			srv := httptest.NewServer(bp.handler())
			defer srv.Close()

			recs := genRecords(25)
			waits := 0
			d := newTestDriver(t, tc.encoding, tc.compress, &waits)
			if err := d.drive(context.Background(), srv.URL, recs, 10, 10); err != nil {
				t.Fatal(err)
			}

			const batches = 3 // ceil(25/10)
			if d.client.Encodes != batches {
				t.Fatalf("encoded %d times for %d batches; retries must reuse the encoded body", d.client.Encodes, batches)
			}
			if bp.accepted != batches {
				t.Fatalf("server accepted %d batches, want %d", bp.accepted, batches)
			}
			if waits != batches*bp.denials {
				t.Fatalf("driver waited %d times, want %d", waits, batches*bp.denials)
			}
			// Each batch shows up denials+1 times, byte-identical each time.
			if len(bp.bodies) != batches*(bp.denials+1) {
				t.Fatalf("server saw %d posts, want %d", len(bp.bodies), batches*(bp.denials+1))
			}
			for i := 0; i < len(bp.bodies); i += bp.denials + 1 {
				for j := 1; j <= bp.denials; j++ {
					if !bytes.Equal(bp.bodies[i], bp.bodies[i+j]) {
						t.Fatalf("retry %d of batch %d resent different bytes", j, i/(bp.denials+1))
					}
				}
			}
		})
	}
}

// TestDriveStopsWhenCancelled: drive hands its ctx to every Send, so a
// cancelled drive posts nothing and says why.
func TestDriveStopsWhenCancelled(t *testing.T) {
	bp := &backpressureServer{}
	srv := httptest.NewServer(bp.handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waits := 0
	d := newTestDriver(t, "binary", false, &waits)
	if err := d.drive(ctx, srv.URL, genRecords(25), 10, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drive returned %v, want context.Canceled", err)
	}
	if len(bp.bodies) != 0 || waits != 0 {
		t.Fatalf("cancelled drive posted %d bodies and waited %d times, want none", len(bp.bodies), waits)
	}
}

// TestDriveBinaryGzipRoundTrip drives a decoding server over every
// encoding and checks the records that arrive are the records sent.
func TestDriveBinaryGzipRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		encoding string
		compress bool
	}{
		{"jsonl", "jsonl", false},
		{"jsonl_gzip", "jsonl", true},
		{"binary", "binary", false},
		{"binary_gzip", "binary", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu  sync.Mutex
				got []telemetry.ViewRecord
			)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				recs, bad, _, err := wire.DecodeBody(r.Header, r.Body, wire.NewDecoder())
				if err != nil || bad != 0 {
					t.Errorf("server decode: err=%v bad=%d", err, bad)
					http.Error(w, "bad", http.StatusBadRequest)
					return
				}
				mu.Lock()
				got = append(got, recs...)
				mu.Unlock()
				w.WriteHeader(http.StatusAccepted)
			}))
			defer srv.Close()

			recs := genRecords(23)
			waits := 0
			d := newTestDriver(t, tc.encoding, tc.compress, &waits)
			if err := d.drive(context.Background(), srv.URL, recs, 7, 0); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recs, got) {
				t.Fatalf("round trip mismatch: sent %d records, got %d", len(recs), len(got))
			}
		})
	}
}

// TestEncodeSteadyStateAllocs pins the buffer-reuse contract directly:
// after warmup, re-encoding a batch through the driver's client stays
// allocation-free for the binary path, so retries (which skip encode
// entirely) cannot scale allocations either.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	recs := genRecords(500)
	d, err := newDriver("binary", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Encode(recs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.client.Encode(recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state encode allocates %.0f times per batch, want <= 2", allocs)
	}
}

// TestNewDriverRejectsUnknownEncoding covers the flag-validation path.
func TestNewDriverRejectsUnknownEncoding(t *testing.T) {
	if _, err := newDriver("protobuf", false, 0); err == nil {
		t.Fatal("unknown -encode accepted")
	}
}

// TestFatalExitsOnAnUnwritableOutput runs main in a child process with
// an -o it cannot create: vmpgen must exit 1 through fatal, naming
// itself on stderr, and write nothing.
func TestFatalExitsOnAnUnwritableOutput(t *testing.T) {
	if out := os.Getenv("VMPGEN_TEST_OUT"); out != "" {
		os.Args = []string{"vmpgen", "-stride", "59", "-o", out}
		main()
		return
	}
	out := filepath.Join(t.TempDir(), "missing", "views.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFatalExitsOnAnUnwritableOutput$")
	cmd.Env = append(os.Environ(), "VMPGEN_TEST_OUT="+out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("vmpgen -o %s: %v, want exit status 1", out, err)
	}
	if !strings.HasPrefix(stderr.String(), "vmpgen: ") {
		t.Fatalf("stderr = %q, want a line starting \"vmpgen: \"", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("stat %s: %v, want it absent", out, err)
	}
}
