package telemetry

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vmp/internal/wire"
)

// wireRecs builds a batch with enough field diversity to exercise the
// string tables and list columns on the binary path.
func wireRecs(n int) []ViewRecord {
	base := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]ViewRecord, n)
	for i := range recs {
		r := rec(fmt.Sprintf("pub-%02d", i%7), i%28, 120+float64(i%300))
		r.Timestamp = base.Add(time.Duration(i) * 53 * time.Second)
		r.Geo = []string{"US", "DE", "BR"}[i%3]
		if i%5 == 0 {
			r.CDNs = []string{"A", "B"}
		}
		recs[i] = r
	}
	return recs
}

func postWire(t *testing.T, srv *httptest.Server, ct, ce string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/views", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if ce != "" {
		req.Header.Set("Content-Encoding", ce)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCollectorBinaryIngest checks the collector speaks the same wire
// contract as the live server: binary frames (plain and gzipped) land
// in the store exactly as their JSONL equivalent would, unknown media
// types are 415s, and truncated frames are whole-batch 400s that bump
// the scan-error counter.
func TestCollectorBinaryIngest(t *testing.T) {
	c := NewCollector(nil)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	recs := wireRecs(90)
	frame, err := wire.NewEncoder().AppendFrame(nil, recs[:60])
	if err != nil {
		t.Fatal(err)
	}
	resp := postWire(t, srv, wire.ContentTypeBinary, "", frame)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary ingest = %s", resp.Status)
	}

	tail, err := wire.NewEncoder().AppendFrame(nil, recs[60:])
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	gw := gzip.NewWriter(&gz)
	if _, err := gw.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	resp = postWire(t, srv, wire.ContentTypeBinary, "gzip", gz.Bytes())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary+gzip ingest = %s", resp.Status)
	}

	if got := c.Store().Len(); got != len(recs) {
		t.Fatalf("store has %d records, want %d", got, len(recs))
	}
	// The store's contents must match a JSONL ingest of the same batch.
	ref := NewStore()
	ref.Append(recs...)
	if got, want := c.Store().All(), ref.All(); len(got) != len(want) {
		t.Fatalf("store mismatch: %d vs %d records", len(got), len(want))
	} else {
		for i := range got {
			if got[i].Publisher != want[i].Publisher || !got[i].Timestamp.Equal(want[i].Timestamp) {
				t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
			}
		}
	}

	resp = postWire(t, srv, "application/xml", "", frame)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown media type = %s, want 415", resp.Status)
	}
	if got := c.scanErrors.Load(); got != 0 {
		t.Fatalf("415 counted as scan error: %d", got)
	}

	resp = postWire(t, srv, wire.ContentTypeBinary, "", frame[:len(frame)-5])
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame = %s, want 400", resp.Status)
	}
	if got := c.scanErrors.Load(); got != 1 {
		t.Fatalf("scan_errors = %d, want 1", got)
	}
	if got := c.Store().Len(); got != len(recs) {
		t.Fatalf("rejected frame changed the store: %d records", got)
	}
}

// blankLine is 4 KiB of JSONL that says nothing.
var blankLine = append(bytes.Repeat([]byte{' '}, 4095), '\n')

func gzipBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jsonlBytes(t *testing.T, recs []ViewRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectorBodyCap: the collector holds the live server's bound. A
// gzip body well under 1 MiB that inflates past wire.MaxBodyBytes is a
// 413, counted once, stores nothing — its leading records included —
// and the decoder it was cut short on decodes the next body correctly.
func TestCollectorBodyCap(t *testing.T) {
	c := NewCollector(nil)
	dec := wire.NewDecoder()
	c.decoders.New = func() any { return dec }
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	recs := wireRecs(40)
	jsonl := jsonlBytes(t, recs)

	// One gzip member of records, then the same 1 MiB member of blank
	// lines over and over: gzip readers concatenate members.
	bomb := gzipBytes(t, jsonl)
	blank := gzipBytes(t, bytes.Repeat(blankLine, 256))
	for i := 0; i <= wire.MaxBodyBytes>>20; i++ {
		bomb = append(bomb, blank...)
	}
	if len(bomb) > 1<<20 {
		t.Fatalf("gzip bomb is %d bytes on the wire; want it under 1 MiB", len(bomb))
	}
	resp := postWire(t, srv, wire.ContentTypeJSONL, "gzip", bomb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb = %s, want 413", resp.Status)
	}
	if got := c.oversize.Load(); got != 1 {
		t.Fatalf("collector_ingest_oversize_total = %d, want 1", got)
	}
	if got := c.Store().Len(); got != 0 {
		t.Fatalf("oversized body stored %d records", got)
	}

	resp = postWire(t, srv, wire.ContentTypeJSONL, "", jsonl)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good body after the oversized one = %s", resp.Status)
	}
	if !reflect.DeepEqual(c.Store().All(), recs) {
		t.Fatalf("store after the oversized body has %d records, want exactly the %d posted", c.Store().Len(), len(recs))
	}
}

// TestCollectorJSONLSlotReuseDoesNotAlias is wire's
// TestJSONLSlotReuseDoesNotAlias through the collector: body A's lines
// take the fast parser and leave CDN views in the one pooled decoder's
// slots; body B's all go to encoding/json (json.Marshal escapes the
// ampersand) with longer lists. A's records, already stored, must not
// change, and the fallback counter says what happened.
func TestCollectorJSONLSlotReuseDoesNotAlias(t *testing.T) {
	c := NewCollector(nil)
	dec := wire.NewDecoder()
	c.decoders.New = func() any { return dec }
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	a, b := wireRecs(60), wireRecs(60)
	for i := range a {
		a[i].CDNs = []string{"A", "B"}
		b[i].URL += "?a=1&b=2"
		b[i].CDNs = []string{"W", "X", "Y", "Z"}
		b[i].Bitrates = []int{9, 8, 7, 6}
	}
	for i, recs := range [][]ViewRecord{a, b} {
		resp := postWire(t, srv, wire.ContentTypeJSONL, "", jsonlBytes(t, recs))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("body %d = %s", i, resp.Status)
		}
		if got, want := c.fallback.Load(), int64(i*len(b)); got != want {
			t.Fatalf("collector_ingest_jsonl_fallback_total = %d after body %d, want %d", got, i, want)
		}
	}
	// The store orders by timestamp and the two bodies share theirs.
	got, want := c.Store().All(), append(a, b...)
	CanonicalSort(got)
	CanonicalSort(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the store is not the two bodies' records: a fallback decode rewrote a stored batch")
	}
}

// BenchmarkScanJSONL isolates the JSONL parse cost on the ingest path
// — the number the binary decoder's records/s is judged against.
func BenchmarkScanJSONL(b *testing.B) {
	recs := wireRecs(2000)
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, recs); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, bad, err := ScanJSONL(bytes.NewReader(body))
		if err != nil || bad != 0 || len(batch) != len(recs) {
			b.Fatalf("scan: %d records, %d bad, err=%v", len(batch), bad, err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
