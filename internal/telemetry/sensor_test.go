package telemetry

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"vmp/internal/wire"
)

// sensorBackend is the smallest /v1/views a Sensor can face (package
// telemetry cannot import internal/live, which imports it): it keeps
// what wire.DecodeBody — the server's half of the negotiation — makes
// of each body, after answering every distinct body with denials 429s
// first. A non-zero status is answered to everything instead.
type sensorBackend struct {
	mu      sync.Mutex
	denials int
	status  int
	denied  map[string]int // body -> 429s issued so far
	bodies  []string
	stored  []ViewRecord
}

func (b *sensorBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	body := string(raw)
	b.bodies = append(b.bodies, body)
	if b.status != 0 {
		w.WriteHeader(b.status)
		return
	}
	if b.denied[body] < b.denials {
		if b.denied == nil {
			b.denied = map[string]int{}
		}
		b.denied[body]++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		return
	}
	recs, bad, _, err := wire.DecodeBody(r.Header, bytes.NewReader(raw), wire.NewDecoder())
	if err != nil || bad != 0 {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	b.stored = append(b.stored, recs...)
	w.WriteHeader(http.StatusAccepted)
}

func (b *sensorBackend) setStatus(status int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.status = status
}

// snapshot returns the bodies seen and the records stored so far.
func (b *sensorBackend) snapshot() ([]string, []ViewRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.bodies...), append([]ViewRecord(nil), b.stored...)
}

func TestSensorBatchingAndFlush(t *testing.T) {
	backend := &sensorBackend{}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	sensor := NewSensor(srv.URL+"/v1/views", srv.Client(), 3)
	for i := 0; i < 2; i++ {
		if err := sensor.Report(rec("p1", i, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, stored := backend.snapshot(); len(stored) != 0 || len(sensor.batch) != 2 {
		t.Fatal("sensor flushed before batch was full")
	}
	if err := sensor.Report(rec("p1", 2, 60)); err != nil {
		t.Fatal(err) // third report triggers auto-flush
	}
	if _, stored := backend.snapshot(); len(stored) != 3 || len(sensor.batch) != 0 {
		t.Fatalf("auto-flush failed: stored=%d pending=%d", len(stored), len(sensor.batch))
	}
	// Explicit flush of an empty batch is a no-op.
	if err := sensor.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSensorBackpressure holds the Sensor to the contract vmpgen's
// driver is held to (cmd/vmpgen's TestDriveEncodesOncePerBatch; it
// lives here because the wait hook is the sensor's private client's):
// against a backend that denies every body twice, each batch is
// encoded once, resent byte-identical after each waited-out hint, and
// delivered exactly once. Any other failure is an error that leaves
// the batch pending for the next Flush.
func TestSensorBackpressure(t *testing.T) {
	backend := &sensorBackend{denials: 2}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	sensor := NewSensor(srv.URL+"/v1/views", srv.Client(), 10)
	waits := 0
	sensor.client.Wait = func(ctx context.Context, hint time.Duration) error {
		if hint < time.Second || hint > 1250*time.Millisecond {
			t.Errorf("waited %v on Retry-After: 1, want 1s plus at most 25%% jitter", hint)
		}
		waits++
		return ctx.Err()
	}
	recs := wireRecs(25)
	for _, r := range recs {
		if err := sensor.Report(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Flush(); err != nil {
		t.Fatal(err)
	}

	const batches = 3 // ceil(25/10)
	bodies, stored := backend.snapshot()
	if !reflect.DeepEqual(stored, recs) {
		t.Fatalf("backend stored %d records, want exactly the %d reported, once each", len(stored), len(recs))
	}
	if len(sensor.batch) != 0 {
		t.Fatalf("%d records still pending after a successful Flush", len(sensor.batch))
	}
	if sensor.client.Encodes != batches {
		t.Fatalf("encoded %d times for %d batches; retries must reuse the encoded body", sensor.client.Encodes, batches)
	}
	if waits != batches*backend.denials {
		t.Fatalf("sensor waited %d times, want %d", waits, batches*backend.denials)
	}
	if len(bodies) != batches*(backend.denials+1) {
		t.Fatalf("backend saw %d posts, want %d", len(bodies), batches*(backend.denials+1))
	}
	for i := 0; i < len(bodies); i += backend.denials + 1 {
		for j := 1; j <= backend.denials; j++ {
			if bodies[i] != bodies[i+j] {
				t.Fatalf("retry %d of batch %d resent different bytes", j, i/(backend.denials+1))
			}
		}
	}

	// A failure that is not backpressure: no wait, an error, and the
	// record is still the sensor's to deliver.
	backend.setStatus(http.StatusInternalServerError)
	late := rec("p-late", 3, 60)
	sensor.batchMax = 1
	if err := sensor.Report(late); err == nil {
		t.Fatal("a 500 was not reported as an error")
	}
	if len(sensor.batch) != 1 || waits != batches*backend.denials {
		t.Fatalf("after a 500: pending=%d waits=%d, want the record kept and no wait", len(sensor.batch), waits)
	}
	backend.setStatus(0)
	if err := sensor.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, stored = backend.snapshot(); len(stored) != len(recs)+1 || !reflect.DeepEqual(stored[len(recs)], late) || len(sensor.batch) != 0 {
		t.Fatalf("the kept record was not delivered exactly once: stored=%d pending=%d", len(stored), len(sensor.batch))
	}
}

func TestSensorCollectorDown(t *testing.T) {
	sensor := NewSensor("http://127.0.0.1:1/v1/views", &http.Client{Timeout: 200 * time.Millisecond}, 1)
	if err := sensor.Report(rec("p1", 0, 60)); err == nil {
		t.Fatal("report to a dead backend should error")
	}
	if len(sensor.batch) != 1 {
		t.Fatalf("pending = %d after a failed report, want the record kept", len(sensor.batch))
	}
}

func TestNewSensorDefaults(t *testing.T) {
	s := NewSensor("http://x", nil, 0)
	if s.client == nil || s.batchMax != 100 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}
