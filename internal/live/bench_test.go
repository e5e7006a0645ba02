package live

import (
	"fmt"
	"testing"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// BenchmarkLiveIngest is the in-package microscope for bench/'s
// live.admit_ms_per_batch: one op is a 500-record batch through Ingest
// on an engine with no WAL, so every instrumentation site costs its
// disabled tracer's one atomic load. The engine is recycled every 200
// ops (outside the timer) so pending-list growth doesn't turn the bench
// into a memory benchmark.
func BenchmarkLiveIngest(b *testing.B) {
	recs := genRecords(500)
	cfg := Config{QueueDepth: 64, Clock: simclock.NewManual(simclock.StudyStart)}
	e := NewEngine(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%200 == 0 {
			b.StopTimer()
			e.Close()
			e = NewEngine(cfg)
			b.StartTimer()
		}
		for {
			res, err := e.Ingest(recs)
			if err != nil {
				b.Fatal(err)
			}
			if res.Backpressured == 0 {
				break
			}
		}
	}
	b.StopTimer()
	e.Close()
	b.ReportMetric(float64(500*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkQuery is the in-package microscope for bench/'s
// live.query_share_ms, live.query_top_ms and live.query_window_ms, swept
// over the generation's size: one op is the serving mix asked once — share × {protocol, platform,
// cdn} × {viewhours, views}, top publishers, one window — over a
// Dataset of 50 k, 200 k or 800 k records. cold asks a Dataset nobody
// has asked before (made by merging one record, outside the timer), so
// every answer is a scan and ns/op grows with the size; warm asks
// the same Dataset again, so every answer is already on it (what
// serve_mixed's repeated queries between two cuts take) and ns/op must
// be flat in the size.
func BenchmarkQuery(b *testing.B) {
	mix := func(b *testing.B, ds *telemetry.Dataset) {
		for _, dim := range queryDims {
			for _, by := range []string{"viewhours", "views"} {
				if _, err := ShareOver(ds, dim, by); err != nil {
					b.Fatal(err)
				}
			}
		}
		TopPublishersOver(ds, 10)
		WindowOver(ds, simclock.DayTime(20), 7)
	}
	for _, size := range []int{50_000, 200_000, 800_000} {
		recs := genRecords(size + 1)
		telemetry.CanonicalSort(recs)
		base := telemetry.NewDataset(recs[:size:size])
		b.Run(fmt.Sprintf("cold/%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := base.Merge([]*telemetry.ViewRecord{&recs[size]})
				b.StartTimer()
				mix(b, ds)
			}
		})
		b.Run(fmt.Sprintf("warm/%dk", size/1000), func(b *testing.B) {
			mix(b, base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mix(b, base)
			}
		})
	}
}
