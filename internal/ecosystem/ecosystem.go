package ecosystem

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"

	"vmp/internal/cdnsim"
	"vmp/internal/device"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// DefaultSeed is the seed every documented experiment uses.
const DefaultSeed = 1809 // IMC '18, October–November

// Config parameterizes ecosystem generation.
type Config struct {
	// Seed drives all randomness; zero means DefaultSeed.
	Seed uint64
	// Schedule is the snapshot plan; nil means the paper's bi-weekly
	// two-day schedule over Jan 2016 – Mar 2018.
	Schedule simclock.Schedule
	// SnapshotStride generates only every k-th snapshot (k >= 1); use
	// it to cut generation cost in tests. Zero means 1.
	SnapshotStride int
}

// Ecosystem is a generated publisher population together with the CDN
// infrastructure it distributes over.
type Ecosystem struct {
	Publishers []*Publisher
	CDNs       *cdnsim.Registry
	Schedule   simclock.Schedule

	root *dist.Source
	// ladders, zipfs and agents are precomputed at construction and
	// read-only afterwards, so snapshot generation can run
	// concurrently.
	ladders map[string]manifest.Ladder
	zipfs   map[int]*dist.Zipf
	agents  map[agentKey]string
}

// New builds the ecosystem for cfg. The construction is deterministic:
// equal configs yield equal populations, record for record.
func New(cfg Config) *Ecosystem {
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = simclock.DefaultSchedule()
	}
	if cfg.SnapshotStride > 1 {
		var strided simclock.Schedule
		for i := 0; i < len(sched); i += cfg.SnapshotStride {
			strided = append(strided, sched[i])
		}
		// Always retain the latest snapshot: every per-snapshot figure
		// uses it.
		if len(strided) == 0 || strided[len(strided)-1].Index != sched[len(sched)-1].Index {
			strided = append(strided, sched[len(sched)-1])
		}
		sched = strided
	}
	root := dist.NewSource(seed)
	e := &Ecosystem{
		CDNs:     cdnsim.NewRegistry(root.Split("cdns")),
		Schedule: sched,
		root:     root,
		ladders:  make(map[string]manifest.Ladder),
		zipfs:    make(map[int]*dist.Zipf),
	}
	e.Publishers = buildPopulation(root.Split("population"))
	// Precompute the per-publisher ladders and catalogue popularity
	// distributions, and the user agents, so sampling never writes
	// shared state.
	lag := 0
	for _, p := range e.Publishers {
		e.ladderFor(p)
		e.catalogZipf(p)
		lag = max(lag, p.SDKLag)
	}
	e.agents = userAgents(sched, lag)
	return e
}

// GenerateStore runs the sampler over every publisher and snapshot and
// returns the assembled view-record store: the synthetic counterpart of
// the paper's dataset. Every (snapshot, publisher) pair owns one range
// of a single record array, sampleSize rows long, snapshot-major.
// GOMAXPROCS workers each take one publisher at a time, the largest
// first, and sample its every snapshot straight into its ranges with
// the publisher's string tables (pubStrings). The result is identical
// to serial generation: every record's content depends only on (seed,
// publisher, snapshot). A view the sampler drops leaves a zero row at
// the end of its range, which telemetry.NewStore's in-place canonical
// sort puts first and leaves out.
func (e *Ecosystem) GenerateStore() *telemetry.Store {
	pubs := len(e.Publishers)
	offs := make([]int, len(e.Schedule)*pubs+1)
	for s, snap := range e.Schedule {
		for i, p := range e.Publishers {
			k := s*pubs + i
			offs[k+1] = offs[k] + sampleSize(p, snap)
		}
	}
	recs := make([]telemetry.ViewRecord, offs[len(offs)-1])
	order := make([]int, pubs)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(e.Publishers[b].DailyVH, e.Publishers[a].DailyVH)
	})
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), pubs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			strs := pubStrings{agents: e.agents}
			for i := range jobs {
				strs.reset(e.Publishers[i])
				for s, snap := range e.Schedule {
					lo, hi := offs[s*pubs+i], offs[s*pubs+i+1]
					e.samplePublisherSnapshot(recs[lo:lo:hi], &strs, snap)
				}
			}
		}()
	}
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return telemetry.NewStore(recs)
}

// GenerateSnapshot samples just one snapshot window across the
// population, publisher by publisher, into one array sized as
// GenerateStore sizes a snapshot's ranges.
func (e *Ecosystem) GenerateSnapshot(snap simclock.Snapshot) []telemetry.ViewRecord {
	n := 0
	for _, p := range e.Publishers {
		n += sampleSize(p, snap)
	}
	recs := make([]telemetry.ViewRecord, 0, n)
	strs := pubStrings{agents: e.agents}
	for _, p := range e.Publishers {
		strs.reset(p)
		recs = e.samplePublisherSnapshot(recs, &strs, snap)
	}
	return recs
}

// Inventory is the per-publisher management-plane metadata at one
// instant: the inputs to the §5 complexity metrics. It is derived from
// publisher configuration rather than sampled records, matching the
// paper's use of full-dataset knowledge.
type Inventory struct {
	Publisher    string
	DailyVH      float64
	Protocols    []manifest.Protocol
	CDNs         []string
	Platforms    []device.Platform
	DeviceModels []string // concrete models reachable at t
	SDKVersions  []string // unique SDK/browser versions supported
	CatalogSize  int
}

// InventoryAt captures every publisher's inventory at time t.
func (e *Ecosystem) InventoryAt(t time.Time) []Inventory {
	out := make([]Inventory, 0, len(e.Publishers))
	f := simclock.FractionThrough(t)
	for _, p := range e.Publishers {
		inv := Inventory{
			Publisher:   p.ID,
			DailyVH:     p.DailyViewHoursAt(t),
			Protocols:   p.ProtocolsAt(t),
			CDNs:        p.CDNNamesAt(t),
			Platforms:   p.PlatformsAt(t),
			CatalogSize: p.CatalogSize,
		}
		seen := map[string]bool{}
		for _, pl := range inv.Platforms {
			names, _ := deviceMixAt(pl, f)
			for _, name := range names {
				model, ok := device.ByName(name)
				if !ok {
					continue
				}
				// A device is reachable only if some supported
				// protocol plays on it.
				playable := false
				for _, proto := range inv.Protocols {
					if model.Supports(proto) {
						playable = true
						break
					}
				}
				if !playable {
					continue
				}
				inv.DeviceModels = append(inv.DeviceModels, name)
				for _, v := range model.VersionsInUse(t, p.SDKLag) {
					key := v.String()
					if !seen[key] {
						seen[key] = true
						inv.SDKVersions = append(inv.SDKVersions, key)
					}
				}
			}
		}
		out = append(out, inv)
	}
	return out
}
