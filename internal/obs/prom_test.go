package obs

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine is the text-exposition line grammar this exporter is allowed
// to emit: a # TYPE comment, or a sample with an optional le label.
var promLine = regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket\{le="[^"]+"\})? [-+0-9.eE(Inf)]+)$`)

func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("live_ingest_records_total").Add(42)
	r.Counter("wal_fsync_total").Add(7)
	r.Gauge("live_queue_depth_batches").Set(3)
	h := r.Histogram("wal_fsync_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // overflow
	return r
}

// TestPromGrammar checks every rendered line against the exposition
// line grammar — the same class of check the smoke script runs against
// a live daemon.
func TestPromGrammar(t *testing.T) {
	out := string(AppendProm(nil, promTestRegistry().Snapshot()))
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("line violates exposition grammar: %q", line)
		}
	}
}

// TestPromMatchesSnapshot renders one snapshot both ways and checks
// the exposition carries exactly the snapshot's values: same counters,
// same gauges, cumulative buckets that sum to the histogram count.
func TestPromMatchesSnapshot(t *testing.T) {
	snap := promTestRegistry().Snapshot()
	out := string(AppendProm(nil, snap))
	samples := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		samples[name] = val
	}
	for name, v := range snap.Counters {
		if samples[name] != strconv.FormatInt(v, 10) {
			t.Fatalf("counter %s rendered %q, want %d", name, samples[name], v)
		}
	}
	for name, v := range snap.Gauges {
		if samples[name] != strconv.FormatInt(v, 10) {
			t.Fatalf("gauge %s rendered %q, want %d", name, samples[name], v)
		}
	}
	h := snap.Histograms["wal_fsync_seconds"]
	if got := samples[`wal_fsync_seconds_bucket{le="+Inf"}`]; got != strconv.FormatInt(h.Count, 10) {
		t.Fatalf("+Inf bucket = %q, want %d", got, h.Count)
	}
	if got := samples["wal_fsync_seconds_count"]; got != strconv.FormatInt(h.Count, 10) {
		t.Fatalf("_count = %q, want %d", got, h.Count)
	}
	sum, err := strconv.ParseFloat(samples["wal_fsync_seconds_sum"], 64)
	if err != nil || math.Abs(sum-h.Sum) > 1e-9 {
		t.Fatalf("_sum = %q, want %v", samples["wal_fsync_seconds_sum"], h.Sum)
	}
	// Cumulative folding: le=0.01 still only covers the 0.0005
	// observation; le=0.1 adds the 0.05 one; the 99 sits in +Inf.
	if got := samples[`wal_fsync_seconds_bucket{le="0.01"}`]; got != "1" {
		t.Fatalf(`le="0.01" bucket = %q, want 1`, got)
	}
	if got := samples[`wal_fsync_seconds_bucket{le="0.1"}`]; got != "2" {
		t.Fatalf(`le="0.1" bucket = %q, want 2`, got)
	}
}

// TestPromByteStable renders the same snapshot twice and expects
// byte-identical output.
func TestPromByteStable(t *testing.T) {
	snap := promTestRegistry().Snapshot()
	if !bytes.Equal(AppendProm(nil, snap), AppendProm(nil, snap)) {
		t.Fatal("exposition differs between identical renders")
	}
}

// TestPromHandler checks the /metrics endpoint: content type, GET-only,
// same bytes as a direct render.
func TestPromHandler(t *testing.T) {
	r := promTestRegistry()
	resp, body := serve(t, r, nil, "GET", "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeProm {
		t.Fatalf("content type = %q", ct)
	}
	if !bytes.Equal(body, AppendProm(nil, r.Snapshot())) {
		t.Fatal("handler output differs from direct render")
	}
	if resp, _ := serve(t, r, nil, "POST", "/metrics"); resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestPromName pins the sanitizer: clean names pass through, dirty
// ones degrade to legal ones.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"live_ingest_records_total":         "live_ingest_records_total",
		"live_query_top-publishers_seconds": "live_query_top_publishers_seconds",
		"9lives":                            "_9lives",
		"":                                  "_",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
