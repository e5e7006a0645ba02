package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vmp/internal/simclock"
)

func rec(pub string, dayOffset int, viewSec float64) ViewRecord {
	return ViewRecord{
		Timestamp: simclock.DayTime(dayOffset),
		Publisher: pub,
		VideoID:   "v1",
		URL:       "http://cdn-a/p/v1.m3u8",
		Device:    "Roku",
		OS:        "RokuOS",
		SDK:       "RokuSDK",
		CDNs:      []string{"A"},
		Bitrates:  []int{400, 800},
		ViewSec:   viewSec,
	}
}

func TestViewHours(t *testing.T) {
	r := rec("p1", 0, 1800)
	if got := r.ViewHours(); got != 0.5 {
		t.Fatalf("ViewHours = %v, want 0.5", got)
	}
	if got := r.Views(); got != 1 {
		t.Fatalf("unweighted Views = %v, want 1", got)
	}
	r.Weight = 40
	if got := r.ViewHours(); got != 20 {
		t.Fatalf("weighted ViewHours = %v, want 20", got)
	}
	if got := r.Views(); got != 40 {
		t.Fatalf("Views = %v, want 40", got)
	}
}

func TestAppView(t *testing.T) {
	r := rec("p1", 0, 60)
	if !r.AppView() {
		t.Error("record with SDK should be an app view")
	}
	r.SDK = ""
	r.UserAgent = "Mozilla/5.0"
	if r.AppView() {
		t.Error("record without SDK is a browser view")
	}
}

func TestStoreWindow(t *testing.T) {
	// Out-of-order input must still window correctly: the store orders
	// it, the dataset built on the store's rows windows it.
	s := NewStore([]ViewRecord{rec("p1", 15, 100), rec("p1", 0, 100), rec("p2", 1, 200), rec("p3", 14, 300)})
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	all := s.All()
	for i := 1; i < len(all); i++ {
		if CompareRecords(&all[i-1], &all[i]) > 0 {
			t.Fatalf("store rows not in canonical order at %d", i)
		}
	}
	ds := NewDataset(all)
	sched := simclock.DefaultSchedule()
	w0 := ds.Window(sched[0]) // days 0-1
	if len(w0) != 2 {
		t.Fatalf("window 0 has %d records, want 2", len(w0))
	}
	w1 := ds.Window(sched[1]) // days 14-15
	if len(w1) != 2 {
		t.Fatalf("window 1 has %d records, want 2", len(w1))
	}
	if !w1[0].Timestamp.Before(w1[1].Timestamp) {
		t.Error("window records not time-ordered")
	}
}

// TestStoreConcurrent: one store under many studies at once (the
// figure benchmarks do this). Building a Dataset on an ordered store
// reads its rows and writes none of them, which -race checks here.
func TestStoreConcurrent(t *testing.T) {
	var recs []ViewRecord
	for i := 0; i < 1600; i++ {
		recs = append(recs, rec(fmt.Sprintf("p%d", i%8), (i*37)%100, 60))
	}
	s := NewStore(recs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds := NewDataset(s.All())
			if got := len(ds.Window(simclock.DefaultSchedule()[0])); got != 32 {
				t.Errorf("window 0 has %d records, want 32", got)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", s.Len())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []ViewRecord{rec("p1", 0, 100), rec("p2", 3, 250)}
	in[0].Syndicated = true
	in[0].Owner = "p9"
	in[0].ContentID = "c7"
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, bad, err := ScanJSONL(&buf)
	if err != nil || bad != 0 {
		t.Fatalf("scan: bad = %d, err = %v", bad, err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d records", len(out))
	}
	if !out[0].Syndicated || out[0].Owner != "p9" || out[0].ContentID != "c7" {
		t.Fatalf("syndication fields lost: %+v", out[0])
	}
	if !out[0].Timestamp.Equal(in[0].Timestamp) {
		t.Error("timestamp did not round-trip")
	}
}

func TestScanJSONLOversizedLine(t *testing.T) {
	// One good record, then a line exceeding MaxLineBytes: the scan
	// must stop with an error, not silently truncate the batch.
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, []ViewRecord{rec("p1", 0, 100)}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Repeat("x", MaxLineBytes+1) + "\n")
	batch, bad, err := ScanJSONL(&buf)
	if err == nil {
		t.Fatal("oversized line did not surface a scan error")
	}
	if len(batch) != 1 || bad != 0 {
		t.Fatalf("batch = %d records, bad = %d; want 1, 0", len(batch), bad)
	}
}

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
