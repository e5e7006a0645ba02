// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls
// out. Most figure benchmarks ask one shared study for their figure:
// the first iteration computes it and every later one is a memo hit,
// so they time the memo, not the figure. BenchmarkFig15and16QoE and
// BenchmarkFig18StorageSavings compute their figure on every
// iteration. Where a figure has a headline number, it is attached via
// b.ReportMetric so `go test -bench` output doubles as a results table.
package vmp_test

import (
	"io"
	"sync"
	"testing"

	"vmp"

	"vmp/internal/cdnsim"
	"vmp/internal/device"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
	"vmp/internal/syndication"
	"vmp/internal/telemetry"
)

var (
	benchOnce  sync.Once
	benchStudy *vmp.Study
)

// benchSetup builds one strided study shared by all figure benchmarks
// (stride 6 ≈ 10 of the 59 snapshots; the latest snapshot is always
// retained) and forces dataset generation so benchmarks time analysis,
// not generation.
func benchSetup(b *testing.B) *vmp.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = vmp.New(vmp.Config{SnapshotStride: 6, QoESessions: 40})
		benchStudy.Store()
	})
	return benchStudy
}

func BenchmarkTable1ProtocolInference(b *testing.B) {
	urls := []string{
		"http://x.akamaihd.net/master.m3u8",
		"http://x.llwnd.net//Z53TiGRzq.mpd",
		"http://x.level3.net/56.ism/manifest",
		"http://x.aws.com/cache/hds.f4m",
		"rtmp://live.example.com/s1",
		"http://x.example.com/video.mp4",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, u := range urls {
			if manifest.InferProtocol(u) == manifest.Unknown {
				b.Fatal("inference failed")
			}
		}
	}
}

func BenchmarkFig2ProtocolShares(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var dash float64
	for i := 0; i < b.N; i++ {
		dash = s.Fig2b().Latest("DASH")
		s.Fig2a()
		s.Fig2c()
	}
	b.ReportMetric(dash, "DASH-latest-%VH")
}

func BenchmarkFig3ProtocolsPerPublisher(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fig3a()
		s.Fig3b()
		s.Fig3c()
	}
}

func BenchmarkFig4ProtocolShareCDF(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cdfs := s.Fig4(); len(cdfs) != 2 {
			b.Fatal("bad Fig4")
		}
	}
}

func BenchmarkFig5PlatformTaxonomy(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if rows := s.Fig5(); len(rows) != 5 {
			b.Fatal("bad Fig5")
		}
	}
}

func BenchmarkFig6PlatformShares(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var settop float64
	for i := 0; i < b.N; i++ {
		settop = s.Fig6a().Latest("SetTop")
		s.Fig6b()
		s.Fig6c()
	}
	b.ReportMetric(settop, "settop-latest-%VH")
}

func BenchmarkFig7PlatformSupport(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fig7()
	}
}

func BenchmarkFig8DurationCDFs(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cdfs := s.Fig8(); len(cdfs) == 0 {
			b.Fatal("bad Fig8")
		}
	}
}

func BenchmarkFig9PlatformsPerPublisher(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fig9a()
		s.Fig9b()
		s.Fig9c()
	}
}

func BenchmarkFig10WithinPlatformDevices(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var roku float64
	for i := 0; i < b.N; i++ {
		s.Fig10(device.Browser)
		s.Fig10(device.Mobile)
		roku = s.Fig10(device.SetTop).Latest("Roku")
	}
	b.ReportMetric(roku, "roku-latest-%settopVH")
}

func BenchmarkFig11CDNShares(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var a float64
	for i := 0; i < b.N; i++ {
		s.Fig11a()
		a = s.Fig11b().Latest("A")
	}
	b.ReportMetric(a, "cdnA-latest-%VH")
}

func BenchmarkFig12CDNsPerPublisher(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var weighted float64
	for i := 0; i < b.N; i++ {
		s.Fig12a()
		s.Fig12b()
		avg := s.Fig12c()
		weighted = avg.Weighted[len(avg.Weighted)-1]
	}
	b.ReportMetric(weighted, "weighted-avg-CDNs")
}

func BenchmarkFig13Complexity(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var factor float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		factor = rep.ProtocolTitles.PerDecadeFactor
	}
	b.ReportMetric(factor, "protocol-titles-x/decade")
}

func BenchmarkFig14SyndicationPrevalence(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts, _ := s.Fig14(); len(pts) == 0 {
			b.Fatal("bad Fig14")
		}
	}
}

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

func BenchmarkFig17LadderTable(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
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
	exps := map[string]float64{"exact": 0, "tol2.5%": 0.025, "tol5%": 0.05, "tol10%": 0.10, "tol20%": 0.20}
	for name, tol := range exps {
		tol := tol
		b.Run(name, func(b *testing.B) {
			cfg := syndication.DefaultStorageConfig()
			cfg.Titles = 120 // keep per-iteration cost modest
			exp, err := syndication.RunStorageExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			_ = exp
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
				saved = origin.DedupSavings(tol)
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

func byteSizeName(mb int64) string {
	switch {
	case mb >= 1024:
		return "cap-" + string(rune('0'+mb/1024)) + "GiB"
	default:
		return "cap-" + string(rune('0'+mb/100)) + "00MiB"
	}
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

// BenchmarkRenderAll measures end-to-end rendering of the whole study.
func BenchmarkRenderAll(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RenderAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	fullStudyOnce  sync.Once
	fullStudyStore *telemetry.Store
)

// fullStudyConfig mirrors benchSetup's strided study.
var fullStudyConfig = vmp.Config{SnapshotStride: 6, QoESessions: 40}

// BenchmarkFullStudy measures the complete cold-start analysis path —
// freeze, every figure computation, full render — with a fresh study
// per iteration over one pre-generated record store, so memoization
// inside a single run counts but nothing carries across iterations.
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
