// Root benchmarks: in-package microscopes on the study stages that
// `bash bench/run.sh`'s study_offline workload times, each naming the
// bench/catalog.go metric it looks at, plus the ablations DESIGN.md §5
// calls out. Every one computes on every iteration. Where a figure has
// a headline number, it is attached via b.ReportMetric.
package vmp_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"vmp"

	"vmp/internal/cdnsim"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
	"vmp/internal/syndication"
	"vmp/internal/telemetry"
)

// BenchmarkFig15and16QoE plays the Fig 15/16 sessions on every
// iteration — CompareQoE over DefaultSlices, through a fresh study of
// the benchmark's study_offline configuration (stride 12, 150 sessions
// per publisher), whose edge caches start cold as they do in a study.
// It is the in-package microscope for core.figures_ms's largest memo.
func BenchmarkFig15and16QoE(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := vmp.New(vmp.Config{SnapshotStride: 12})
		b.StartTimer()
		comps, err := s.Fig15and16()
		if err != nil {
			b.Fatal(err)
		}
		ratio = comps[0].Owner.MedianKbps / comps[0].Syndicator.MedianKbps
	}
	b.ReportMetric(ratio, "owner/synd-median-bitrate")
}

// BenchmarkFig18StorageSavings runs RunStorageExperiment with the
// configuration Fig 18 uses on every iteration: fill the origins, then
// sweep the dedup tolerances. It is the in-package microscope for
// core.figures_ms's Fig 18 share.
func BenchmarkFig18StorageSavings(b *testing.B) {
	b.ReportAllocs()
	var integrated float64
	for i := 0; i < b.N; i++ {
		exp, err := syndication.RunStorageExperiment(syndication.DefaultStorageConfig())
		if err != nil {
			b.Fatal(err)
		}
		integrated = exp.Reports[0].Report.IntegratedPct
	}
	b.ReportMetric(integrated, "integrated-%savings")
}

// BenchmarkDatasetGeneration times GenerateStore at stride 12, the
// benchmark's study_offline configuration: the in-package microscope
// for its core.generate_ms.
func BenchmarkDatasetGeneration(b *testing.B) {
	study := vmp.New(vmp.Config{SnapshotStride: 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if study.Eco.GenerateStore().Len() == 0 {
			b.Fatal("no records")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDedupTolerance sweeps the dedup tolerance on the
// Fig 18 origin and reports the savings percentage at each setting.
func BenchmarkAblationDedupTolerance(b *testing.B) {
	for _, c := range []struct {
		name string
		tol  float64
	}{{"exact", 0}, {"tol2.5%", 0.025}, {"tol5%", 0.05}, {"tol10%", 0.10}, {"tol20%", 0.20}} {
		b.Run(c.name, func(b *testing.B) {
			origin := cdnsim.NewOrigin()
			o, s1, s2 := syndication.Fig18Ladders()
			push := func(pub string, l manifest.Ladder) {
				m := map[int]int64{}
				for _, r := range l {
					m[r.BitrateKbps] = int64(r.BitrateKbps) * 450000
				}
				for t := 0; t < 100; t++ {
					origin.Push(pub, string(rune('a'+t%26))+string(rune('0'+t/26)), m)
				}
			}
			push("O", o)
			push("S1", s1)
			push("S2", s2)
			var saved int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				saved = origin.DedupSavings(c.tol)
			}
			b.ReportMetric(100*float64(saved)/float64(origin.TotalBytes()), "%saved")
		})
	}
}

// BenchmarkAblationEdgeCache sweeps the edge cache size and reports
// the hit ratio a fixed Zipf workload achieves.
func BenchmarkAblationEdgeCache(b *testing.B) {
	for _, mb := range []int64{64, 256, 1024, 4096} {
		mb := mb
		b.Run(byteSizeName(mb), func(b *testing.B) {
			zipf := dist.NewZipf(5000, 0.9)
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache := cdnsim.NewEdgeCache(mb << 20)
				src := dist.NewSource(9)
				for j := 0; j < 20000; j++ {
					obj := zipf.Draw(src)
					cache.Serve(chunkName(obj), 2<<20)
				}
				ratio = cache.HitRatio()
			}
			b.ReportMetric(100*ratio, "%hit")
		})
	}
}

// byteSizeName names a cache capacity of mb MiB by its size.
func byteSizeName(mb int64) string {
	if mb%1024 == 0 {
		return fmt.Sprintf("cap-%dGiB", mb/1024)
	}
	return fmt.Sprintf("cap-%dMiB", mb)
}

func chunkName(i int) string {
	buf := [12]byte{'c', 'h', 'u', 'n', 'k', '-'}
	n := 6
	if i == 0 {
		buf[n] = '0'
		n++
	}
	for v := i; v > 0; v /= 10 {
		buf[n] = byte('0' + v%10)
		n++
	}
	return string(buf[:n])
}

// BenchmarkAblationSnapshotCadence compares the paper's bi-weekly
// cadence against weekly and monthly schedules: the DASH trend
// estimate should be cadence-insensitive, while cost scales linearly.
func BenchmarkAblationSnapshotCadence(b *testing.B) {
	for _, cfg := range []struct {
		name string
		days int
	}{{"weekly", 7}, {"biweekly", 14}, {"monthly", 28}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			sched := simclock.MakeSchedule(cfg.days, 2)
			// Thin to ~6 snapshots to keep per-iteration cost bounded
			// while preserving the cadence's window positions.
			var thin simclock.Schedule
			for i := 0; i < len(sched); i += len(sched)/6 + 1 {
				thin = append(thin, sched[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				study := vmp.New(vmp.Config{})
				eco := study.Eco
				var total, dash float64
				for _, snap := range thin {
					for _, rec := range eco.GenerateSnapshot(snap) {
						vh := rec.ViewHours()
						total += vh
						if manifest.InferProtocol(rec.URL) == manifest.DASH {
							dash += vh
						}
					}
				}
				b.ReportMetric(100*dash/total, "mean-%DASH")
			}
		})
	}
}

var (
	fullStudyOnce  sync.Once
	fullStudyStore *telemetry.Store
)

// fullStudyConfig is the benchmark's study_offline configuration:
// stride 12 (≈ 110 k records) and the study's 150 Fig 15/16 sessions.
var fullStudyConfig = vmp.Config{SnapshotStride: 12}

// BenchmarkFullStudy measures the complete cold-start analysis path —
// freeze, every figure computation, full render — with a fresh study
// per iteration over one pre-generated record store, so memoization
// inside a single run counts but nothing carries across iterations.
// It is the in-package microscope for study_offline's core.freeze_ms,
// core.figures_ms and core.render_ms together.
// The serial and parallel sub-benchmarks produce byte-identical output
// (see core.TestRenderAllParallelByteIdentical).
func BenchmarkFullStudy(b *testing.B) {
	fullStudyOnce.Do(func() {
		fullStudyStore = vmp.New(fullStudyConfig).Store()
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := vmp.NewFromStore(fullStudyConfig, fullStudyStore)
			if err := s.RenderAll(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := vmp.NewFromStore(fullStudyConfig, fullStudyStore)
			if err := s.RenderAllParallel(io.Discard, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
