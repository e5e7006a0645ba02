package live

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/wire"
)

// TestServerAckHistograms posts one JSONL and one binary batch and
// checks each landed exactly one observation in its own ingest.ack
// histogram — the encoding split the SLO contract promises.
func TestServerAckHistograms(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	all := genRecords(200)

	resp := postViews(t, srv.Client(), srv.URL, all[:100])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("jsonl ingest = %s", resp.Status)
	}
	resp = postRaw(t, srv.Client(), srv.URL, wire.ContentTypeBinary, "", encodeBinary(t, all[100:]))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary ingest = %s", resp.Status)
	}

	snap := e.Metrics().Snapshot()
	if n := snap.Histograms["live_ingest_ack_jsonl_seconds"].Count; n != 1 {
		t.Fatalf("jsonl ack count = %d, want 1", n)
	}
	if n := snap.Histograms["live_ingest_ack_binary_seconds"].Count; n != 1 {
		t.Fatalf("binary ack count = %d, want 1", n)
	}

	// A rejected batch must not close an ack window: the SLO measures
	// arrival → 202, nothing else. Corrupt gzip cuts the stream short
	// and draws a 400.
	resp = postRaw(t, srv.Client(), srv.URL, "application/x-ndjson", "gzip", []byte("not gzip"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body = %s, want 400", resp.Status)
	}
	snap = e.Metrics().Snapshot()
	if n := snap.Histograms["live_ingest_ack_jsonl_seconds"].Count; n != 1 {
		t.Fatalf("jsonl ack count after rejected batch = %d, want still 1", n)
	}
}

// TestMetricsEndpointsAgree fetches /metrics and /v1/metrics from a
// quiet server and checks the Prometheus exposition carries exactly
// the JSON snapshot's values — two renderings of one registry.
func TestMetricsEndpointsAgree(t *testing.T) {
	_, srv, e := newTestServer(t, Config{})
	resp := postViews(t, srv.Client(), srv.URL, genRecords(500))
	resp.Body.Close()
	e.Snapshot()

	var snap obs.Snapshot
	if err := json.Unmarshal(getBody(t, srv.Client(), srv.URL+"/v1/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	prom, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(prom.Body)
	prom.Body.Close()
	if ct := prom.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Fatalf("/metrics content type = %q", ct)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(promBody), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			samples[name] = val
		}
	}
	for name, v := range snap.Counters {
		if samples[name] != strconv.FormatInt(v, 10) {
			t.Fatalf("counter %s: prom %q vs json %d", name, samples[name], v)
		}
	}
	for name, v := range snap.Gauges {
		if samples[name] != strconv.FormatInt(v, 10) {
			t.Fatalf("gauge %s: prom %q vs json %d", name, samples[name], v)
		}
	}
	if samples["live_ingest_records_total"] != "500" {
		t.Fatalf("live_ingest_records_total = %q, want 500", samples["live_ingest_records_total"])
	}
}

// TestSeriesEndpoint wires a ring into the engine, records one point
// the way the sampler does, and reads it back through /v1/series.
func TestSeriesEndpoint(t *testing.T) {
	ring := obs.NewSeriesRing(8)
	_, srv, e := newTestServer(t, Config{Series: ring})
	resp := postViews(t, srv.Client(), srv.URL, genRecords(300))
	resp.Body.Close()
	e.Snapshot()
	e.PublishGauges()
	ring.Record(e.clock.Now(), e.Metrics().Snapshot())

	var series obs.SeriesSnapshot
	if err := json.Unmarshal(getBody(t, srv.Client(), srv.URL+"/v1/series"), &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 1 {
		t.Fatalf("series points = %d, want 1", len(series.Points))
	}
	p := series.Points[0]
	if p.Counters["live_ingest_records_total"] != 300 {
		t.Fatalf("series counter = %d, want 300", p.Counters["live_ingest_records_total"])
	}
	if p.Gauges["live_generation_records"] != 300 {
		t.Fatalf("series generation gauge = %d, want 300", p.Gauges["live_generation_records"])
	}
	if h, ok := p.Hists["live_ingest_ack_jsonl_seconds"]; !ok || h.Count != 1 {
		t.Fatalf("series ack histogram = %+v (present %v)", h, ok)
	}
}

// TestPublishGauges pins the sampler-source contract: queue depths,
// generation identity, and age all land in the registry.
func TestPublishGauges(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Ingest(genRecords(100)); err != nil {
		t.Fatal(err)
	}
	e.Snapshot()
	e.PublishGauges()
	snap := e.Metrics().Snapshot()
	if snap.Gauges["live_generation_epoch"] != 1 {
		t.Fatalf("live_generation_epoch = %d, want 1", snap.Gauges["live_generation_epoch"])
	}
	if snap.Gauges["live_generation_records"] != 100 {
		t.Fatalf("live_generation_records = %d, want 100", snap.Gauges["live_generation_records"])
	}
	if snap.Gauges["live_generation_age_ms"] < 0 {
		t.Fatalf("live_generation_age_ms = %d, want >= 0", snap.Gauges["live_generation_age_ms"])
	}
	// The snapshot drained the queue.
	if snap.Gauges["live_queue_depth_batches"] != 0 {
		t.Fatalf("live_queue_depth_batches = %d, want 0", snap.Gauges["live_queue_depth_batches"])
	}
}
