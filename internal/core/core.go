// Package core is the study orchestrator: it wires the synthetic
// ecosystem, its telemetry dataset, and the analysis packages into the
// paper's experiment suite, one method per table or figure. The root
// vmp package re-exports this API; cmd/vmpstudy and the benchmark
// harness drive it.
//
// Figure methods run over a frozen telemetry.Dataset (immutable,
// timestamp-sorted, interned dimensions) and memoize their results, so
// each analysis is computed once no matter how many figures share it
// and the RunAll worker pool can fan out without re-scanning records.
package core

import (
	"fmt"
	"sync"

	"vmp/internal/analytics"
	"vmp/internal/complexity"
	"vmp/internal/device"
	"vmp/internal/ecosystem"
	"vmp/internal/manifest"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/stats"
	"vmp/internal/syndication"
	"vmp/internal/telemetry"
)

// StudyConfig parameterizes a reproduction run.
type StudyConfig struct {
	// Seed drives all randomness; zero means ecosystem.DefaultSeed.
	Seed uint64
	// SnapshotStride thins the bi-weekly schedule (1 = full study).
	// Zero means 1.
	SnapshotStride int
	// QoESessions is the per-publisher session count for the Fig 15/16
	// playback experiments; zero means 150.
	QoESessions int
}

// Study holds a generated dataset and memoizes the analyses.
type Study struct {
	cfg StudyConfig
	Eco *ecosystem.Ecosystem

	once  sync.Once
	store *telemetry.Store

	dsOnce  sync.Once
	dataset *telemetry.Dataset

	memoMu sync.Mutex
	memo   map[string]*memoEntry

	// tracer, when set, records a figure.<id> span around every Render
	// call; vmpstudy -stats reads the per-figure timings back out of
	// its stage aggregates. Nil (the default) costs nothing: Start on a
	// nil tracer returns an inert span.
	tracer *obs.Tracer
}

// SetTracer attaches a tracer whose figure.<id> spans time every
// Render call. Call it before rendering; it is not synchronized with
// concurrent renders.
func (s *Study) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// memoEntry guards one figure computation: concurrent callers share a
// single evaluation via the Once.
type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewStudy builds the ecosystem for cfg. Dataset generation is lazy:
// figures that need records trigger it on first use.
func NewStudy(cfg StudyConfig) *Study {
	return &Study{
		cfg: cfg,
		Eco: ecosystem.New(ecosystem.Config{Seed: cfg.Seed, SnapshotStride: cfg.SnapshotStride}),
	}
}

// NewStudyFromStore builds a study over an externally provided record
// store (a decoded JSONL dataset, a benchmark's pre-generated store)
// instead of generating one from the ecosystem.
func NewStudyFromStore(cfg StudyConfig, store *telemetry.Store) *Study {
	s := NewStudy(cfg)
	s.store = store
	return s
}

// Store returns the study's view-record store, generating it on first
// call unless one was injected via NewStudyFromStore.
func (s *Study) Store() *telemetry.Store {
	s.once.Do(func() {
		if s.store == nil {
			s.store = s.Eco.GenerateStore()
		}
	})
	return s.store
}

// Dataset returns the frozen view every figure method reads: columns
// built once, beside the store's own row array.
func (s *Study) Dataset() *telemetry.Dataset {
	s.dsOnce.Do(func() { s.dataset = telemetry.NewDataset(s.Store().All()) })
	return s.dataset
}

// entry returns the memo slot for key, creating it if needed.
func (s *Study) entry(key string) *memoEntry {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.memo == nil {
		s.memo = make(map[string]*memoEntry)
	}
	e := s.memo[key]
	if e == nil {
		e = &memoEntry{}
		s.memo[key] = e
	}
	return e
}

// memoized computes f once per study for key and caches (value, error);
// a package function because Go methods cannot be generic.
func memoized[T any](s *Study, key string, f func() (T, error)) (T, error) {
	e := s.entry(key)
	e.once.Do(func() { e.val, e.err = f() })
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.val.(T), nil
}

// memo is memoized for infallible computations.
func memo[T any](s *Study, key string, f func() T) T {
	v, _ := memoized(s, key, func() (T, error) { return f(), nil })
	return v
}

// Schedule returns the study's snapshot schedule.
func (s *Study) Schedule() simclock.Schedule { return s.Eco.Schedule }

// latest returns the records of the latest snapshot as a zero-copy
// read-only view of the frozen dataset.
func (s *Study) latest() []telemetry.ViewRecord {
	return s.Dataset().Window(s.Schedule().Latest())
}

// bundle memoizes the fused per-dimension analysis (publisher shares,
// view-hour shares, view shares, instance averages in one pass).
func (s *Study) bundle(key string, col func(*telemetry.Dataset) *telemetry.DimColumn) *analytics.DimBundle {
	return memo(s, "bundle:"+key, func() *analytics.DimBundle {
		ds := s.Dataset()
		return analytics.AnalyzeDim(ds, s.Schedule(), col(ds))
	})
}

func (s *Study) protocolBundle() *analytics.DimBundle {
	return s.bundle("protocol", (*telemetry.Dataset).ProtocolCol)
}

func (s *Study) platformBundle() *analytics.DimBundle {
	return s.bundle("platform", (*telemetry.Dataset).PlatformCol)
}

func (s *Study) cdnBundle() *analytics.DimBundle {
	return s.bundle("cdn", (*telemetry.Dataset).CDNCol)
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Protocol  string
	Extension string
	SampleURL string
	Inferred  string
}

// Table1 regenerates the protocol-inference table against freshly
// minted URLs.
func (s *Study) Table1() []Table1Row {
	var rows []Table1Row
	for _, p := range []manifest.Protocol{manifest.HLS, manifest.DASH, manifest.Smooth, manifest.HDS} {
		url := manifest.ManifestURL(p, "http://cdn-A.example.net/pub000", "v0001")
		rows = append(rows, Table1Row{
			Protocol:  p.String(),
			Extension: p.ManifestExtension(),
			SampleURL: url,
			Inferred:  manifest.InferProtocol(url).String(),
		})
	}
	return rows
}

// Fig2a: percentage of publishers supporting each streaming protocol
// over time.
func (s *Study) Fig2a() *analytics.TimeSeries {
	return s.protocolBundle().Publishers
}

// Fig2b: percentage of view-hours by protocol over time.
func (s *Study) Fig2b() *analytics.TimeSeries {
	return s.protocolBundle().ViewHours
}

// Fig2c: Fig2b excluding the N large DASH-driving publishers.
func (s *Study) Fig2c() *analytics.TimeSeries {
	return memo(s, "fig2c", func() *analytics.TimeSeries {
		ds := s.Dataset()
		exclude := make([]bool, ds.NumPublishers())
		for _, p := range s.Eco.Publishers {
			if p.DASHDriver {
				if id, ok := ds.PublisherIDOf(p.ID); ok {
					exclude[id] = true
				}
			}
		}
		return analytics.ShareOfViewHoursDataset(ds, s.Schedule(), ds.ProtocolCol(), exclude)
	})
}

// Fig3a: number of protocols per publisher, latest snapshot.
func (s *Study) Fig3a() *analytics.Histogram {
	return memo(s, "fig3a", func() *analytics.Histogram {
		ds := s.Dataset()
		return analytics.InstancesPerPublisherDataset(ds, s.Schedule().Latest(), ds.ProtocolCol())
	})
}

// Fig3b: protocols per publisher bucketed by view-hours.
func (s *Study) Fig3b() *analytics.BucketBreakdown {
	return memo(s, "fig3b", func() *analytics.BucketBreakdown {
		ds := s.Dataset()
		snap := s.Schedule().Latest()
		return analytics.InstancesByBucketDataset(ds, snap, ds.ProtocolCol(), snap.Days, ecosystem.NumBuckets)
	})
}

// Fig3c: average protocols per publisher over time, plain and
// view-hour weighted.
func (s *Study) Fig3c() *analytics.AveragesSeries {
	return s.protocolBundle().Averages
}

// Fig4: CDF across publishers of the share of their view-hours served
// via DASH and via HLS.
func (s *Study) Fig4() map[string]analytics.CDF {
	return memo(s, "fig4", func() map[string]analytics.CDF {
		ds := s.Dataset()
		snap := s.Schedule().Latest()
		return map[string]analytics.CDF{
			"DASH": analytics.SupporterShareCDFDataset(ds, snap, ds.ProtocolCol(), "DASH"),
			"HLS":  analytics.SupporterShareCDFDataset(ds, snap, ds.ProtocolCol(), "HLS"),
		}
	})
}

// Fig5Row describes one platform category and its device models.
type Fig5Row struct {
	Platform string
	AppBased bool
	Models   []string
}

// Fig5 renders the platform taxonomy.
func (s *Study) Fig5() []Fig5Row {
	var rows []Fig5Row
	for _, pl := range device.Platforms {
		row := Fig5Row{Platform: pl.String(), AppBased: pl.AppBased()}
		for _, m := range device.OfPlatform(pl) {
			row.Models = append(row.Models, m.Name)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig6a: percentage of view-hours per platform over time.
func (s *Study) Fig6a() *analytics.TimeSeries {
	return s.platformBundle().ViewHours
}

// Fig6b: Fig6a excluding the three largest publishers.
func (s *Study) Fig6b() *analytics.TimeSeries {
	return memo(s, "fig6b", func() *analytics.TimeSeries {
		ds := s.Dataset()
		exclude := analytics.TopPublisherMask(ds, s.Schedule().Latest(), 3)
		return analytics.ShareOfViewHoursDataset(ds, s.Schedule(), ds.PlatformCol(), exclude)
	})
}

// Fig6c: percentage of views per platform over time.
func (s *Study) Fig6c() *analytics.TimeSeries {
	return s.platformBundle().Views
}

// Fig7: percentage of publishers supporting each platform over time.
func (s *Study) Fig7() *analytics.TimeSeries {
	return s.platformBundle().Publishers
}

// Fig8: CDF of individual view duration per platform, and the share of
// views over 0.2 h, latest snapshot.
func (s *Study) Fig8() *analytics.Durations {
	return memo(s, "fig8", func() *analytics.Durations {
		return analytics.DurationCDFs(s.Dataset(), s.Schedule().Latest())
	})
}

// Fig9a/b/c: platforms per publisher (histogram, bucketed, averages).
func (s *Study) Fig9a() *analytics.Histogram {
	return memo(s, "fig9a", func() *analytics.Histogram {
		ds := s.Dataset()
		return analytics.InstancesPerPublisherDataset(ds, s.Schedule().Latest(), ds.PlatformCol())
	})
}

// Fig9b: platforms per publisher bucketed by view-hours.
func (s *Study) Fig9b() *analytics.BucketBreakdown {
	return memo(s, "fig9b", func() *analytics.BucketBreakdown {
		ds := s.Dataset()
		snap := s.Schedule().Latest()
		return analytics.InstancesByBucketDataset(ds, snap, ds.PlatformCol(), snap.Days, ecosystem.NumBuckets)
	})
}

// Fig9c: average platforms per publisher over time.
func (s *Study) Fig9c() *analytics.AveragesSeries {
	return s.platformBundle().Averages
}

// Fig10a/b/c: view-hour shares of devices within browsers, mobile, and
// set-top boxes.
func (s *Study) Fig10(pl device.Platform) *analytics.TimeSeries {
	return memo(s, "fig10:"+pl.String(), func() *analytics.TimeSeries {
		ds := s.Dataset()
		return analytics.ShareOfViewHoursDataset(ds, s.Schedule(), ds.DeviceCol(pl.String()), nil)
	})
}

// Fig11a: percentage of publishers using each top-5 CDN over time.
func (s *Study) Fig11a() *analytics.TimeSeries {
	return s.cdnBundle().Publishers
}

// Fig11b: percentage of view-hours per CDN over time.
func (s *Study) Fig11b() *analytics.TimeSeries {
	return s.cdnBundle().ViewHours
}

// Fig12a/b/c: CDNs per publisher.
func (s *Study) Fig12a() *analytics.Histogram {
	return memo(s, "fig12a", func() *analytics.Histogram {
		ds := s.Dataset()
		return analytics.InstancesPerPublisherDataset(ds, s.Schedule().Latest(), ds.CDNCol())
	})
}

// Fig12b: CDNs per publisher bucketed by view-hours.
func (s *Study) Fig12b() *analytics.BucketBreakdown {
	return memo(s, "fig12b", func() *analytics.BucketBreakdown {
		ds := s.Dataset()
		snap := s.Schedule().Latest()
		return analytics.InstancesByBucketDataset(ds, snap, ds.CDNCol(), snap.Days, ecosystem.NumBuckets)
	})
}

// Fig12c: average CDNs per publisher over time.
func (s *Study) Fig12c() *analytics.AveragesSeries {
	return s.cdnBundle().Averages
}

// CDNSegregation reproduces §4.3's live/VoD segregation numbers.
func (s *Study) CDNSegregation() analytics.SegregationStats {
	return memo(s, "cdn-segregation", func() analytics.SegregationStats {
		return analytics.Segregation(s.latest())
	})
}

// Fig13 runs the §5 complexity analysis over the latest inventory.
func (s *Study) Fig13() (complexity.Report, error) {
	return memoized(s, "fig13", func() (complexity.Report, error) {
		return complexity.Analyze(s.Eco.InventoryAt(s.Schedule().Latest().Start))
	})
}

// prevalence pairs Fig14's two results for the memo table.
type prevalence struct {
	points []syndication.PrevalencePoint
	cdf    *stats.ECDF
}

// Fig14 computes the syndication-prevalence CDF.
func (s *Study) Fig14() ([]syndication.PrevalencePoint, *stats.ECDF) {
	p := memo(s, "fig14", func() prevalence {
		points, cdf := syndication.Prevalence(s.Eco.Publishers)
		return prevalence{points, cdf}
	})
	return p.points, p.cdf
}

// QoEComparison is the Fig 15/16 outcome for one ISP×CDN slice.
type QoEComparison struct {
	ISP        string
	CDN        string
	Owner      syndication.QoEDist
	Syndicator syndication.QoEDist
}

// Fig15and16 runs the playback-based owner-versus-syndicator
// comparison on the paper's two slices. The comparison is computed
// once per study; both figures render from the same run.
func (s *Study) Fig15and16() ([]QoEComparison, error) {
	return memoized(s, "fig15and16", func() ([]QoEComparison, error) {
		sessions := s.cfg.QoESessions
		if sessions <= 0 {
			sessions = 150
		}
		seed := s.cfg.Seed
		if seed == 0 {
			seed = ecosystem.DefaultSeed
		}
		slices, err := syndication.DefaultSlices(s.Eco.CDNs, sessions, seed)
		if err != nil {
			return nil, err
		}
		cat := syndication.StarCatalogue()
		s7, ok := cat.SyndicatorByID("S7")
		if !ok {
			return nil, fmt.Errorf("core: star catalogue lost S7")
		}
		// The slices play concurrently, one goroutine each: they share
		// no edge cache (each is its own CDN's POP toward its own ISP)
		// and each has its own seed. A slice's sessions stay serial,
		// since its cache state depends on their order.
		out := make([]QoEComparison, len(slices))
		errs := make([]error, len(slices))
		var wg sync.WaitGroup
		for i, sl := range slices {
			wg.Add(1)
			go func() {
				defer wg.Done()
				owner, synd, err := syndication.CompareQoE(cat.Owner, s7, cat.TitleID, sl)
				out[i] = QoEComparison{ISP: sl.ISP.Name, CDN: sl.CDN.Name, Owner: owner, Syndicator: synd}
				errs[i] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// Fig17 returns the star catalogue's ladder table.
func (s *Study) Fig17() ([]syndication.LadderRow, error) {
	return memoized(s, "fig17", func() ([]syndication.LadderRow, error) {
		cat := syndication.StarCatalogue()
		if err := cat.CheckFig17Invariants(); err != nil {
			return nil, err
		}
		return cat.LadderTable(), nil
	})
}

// Fig18 runs the origin-storage redundancy experiment.
func (s *Study) Fig18() (*syndication.StorageExperiment, error) {
	return memoized(s, "fig18", func() (*syndication.StorageExperiment, error) {
		return syndication.RunStorageExperiment(syndication.DefaultStorageConfig())
	})
}

// Macro computes the §3 macroscopic-context statistics over the latest
// snapshot.
func (s *Study) Macro() analytics.MacroStats {
	return memo(s, "macro", func() analytics.MacroStats {
		snap := s.Schedule().Latest()
		return analytics.MacroDataset(s.Dataset(), snap, snap.Days)
	})
}

// ProtocolPlatformCross computes the protocol × platform view-hour
// cross-tabulation over the latest snapshot: the §3 "any slice of the
// data" capability, and a direct view of the §2 coupling between
// packaging choices and device reach (Apple rows are 100% HLS).
func (s *Study) ProtocolPlatformCross() *analytics.CrossTab {
	return memo(s, "crosstab", func() *analytics.CrossTab {
		ds := s.Dataset()
		return analytics.CrossDataset(ds, s.Schedule().Latest(), ds.PlatformCol(), ds.ProtocolCol())
	})
}
