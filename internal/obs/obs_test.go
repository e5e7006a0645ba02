package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// serve sends one request through Mount and returns the response the
// client saw. Result() holds the headers as they stood when the status
// went out; rec.Header() is the live map, where a header set after the
// body would still show.
func serve(t *testing.T, reg *Registry, series *SeriesRing, method, path string) (*http.Response, []byte) {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, reg, NewTracer(testClock(), 8), series)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	resp := rec.Result()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ingested")
	c.Add(3)
	c.Add(2)
	if got := r.Counter("ingested").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	if got := r.Gauge("depth").Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 556.5 {
		t.Fatalf("sum = %v, want 556.5", s.Sum)
	}
	want := []int64{2, 1, 1, 1} // {<=1}=2 (0.5 and the boundary 1), (1,10]=1, (10,100]=1, overflow=1
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], n, s.Counts)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Sum != workers*per {
		t.Fatalf("sum = %v, want %d", s.Sum, workers*per)
	}
}

func TestBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestHandlerDeterministic renders the same registry twice and expects
// byte-identical JSON: the /v1/metrics payload must not depend on map
// iteration order.
func TestHandlerDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("depth").Set(4)
	r.Histogram("lat", []float64{0.1, 1}).Observe(0.05)

	render := func() []byte {
		resp, body := serve(t, r, nil, "GET", "/v1/metrics")
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		return body
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Fatal("metrics payload differs between identical renders")
	}
	var snap Snapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatalf("payload not valid JSON: %v", err)
	}
	if snap.Counters["a_total"] != 1 || snap.Counters["b_total"] != 2 {
		t.Fatalf("counters round-trip = %+v", snap.Counters)
	}
}
