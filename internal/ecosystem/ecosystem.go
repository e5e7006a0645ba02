package ecosystem

import (
	"fmt"
	"runtime"
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
	// Parallelism is the number of snapshots generated concurrently by
	// GenerateStore. Zero means GOMAXPROCS. Generation is
	// deterministic regardless of parallelism: every record's content
	// depends only on (seed, publisher, snapshot), and the store
	// holds records in canonical order.
	Parallelism int
}

// Ecosystem is a generated publisher population together with the CDN
// infrastructure it distributes over.
type Ecosystem struct {
	Publishers []*Publisher
	CDNs       *cdnsim.Registry
	Schedule   simclock.Schedule

	root        *dist.Source
	parallelism int
	// ladders and zipfs are precomputed at construction and read-only
	// afterwards, so snapshot generation can run concurrently.
	ladders map[string]manifest.Ladder
	zipfs   map[int]*dist.Zipf
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
		CDNs:        cdnsim.NewRegistry(root.Split("cdns")),
		Schedule:    sched,
		root:        root,
		parallelism: cfg.Parallelism,
		ladders:     make(map[string]manifest.Ladder),
		zipfs:       make(map[int]*dist.Zipf),
	}
	e.Publishers = buildPopulation(root.Split("population"))
	// Precompute the per-publisher ladders and catalogue popularity
	// distributions so sampling never writes shared state.
	for _, p := range e.Publishers {
		e.ladderFor(p)
		e.catalogZipf(p)
	}
	return e
}

// GenerateStore runs the sampler over every publisher and snapshot and
// returns the assembled view-record store: the synthetic counterpart of
// the paper's dataset. Snapshots are generated in parallel (see
// Config.Parallelism), each into the slot of its schedule index, so the
// result is identical to serial generation.
func (e *Ecosystem) GenerateStore() *telemetry.Store {
	workers := e.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slots := make([][]telemetry.ViewRecord, len(e.Schedule))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(slots)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				slots[i] = e.GenerateSnapshot(e.Schedule[i])
			}
		}()
	}
	for i := range slots {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	n := 0
	for _, slot := range slots {
		n += len(slot)
	}
	recs := make([]telemetry.ViewRecord, 0, n)
	for _, slot := range slots {
		recs = append(recs, slot...)
	}
	return telemetry.NewStore(recs)
}

// GenerateSnapshot samples just one snapshot window across the
// population.
func (e *Ecosystem) GenerateSnapshot(snap simclock.Snapshot) []telemetry.ViewRecord {
	var out []telemetry.ViewRecord
	for _, p := range e.Publishers {
		out = append(out, e.samplePublisherSnapshot(p, snap)...)
	}
	return out
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

// Validate sanity-checks the generated population; it returns an error
// describing the first structural violation found. Tests call this
// before trusting a population.
func (e *Ecosystem) Validate() error {
	if len(e.Publishers) == 0 {
		return fmt.Errorf("ecosystem: empty population")
	}
	latest := e.Schedule.Latest()
	for _, p := range e.Publishers {
		if p.DailyVH <= 0 {
			return fmt.Errorf("ecosystem: %s has non-positive view-hours", p.ID)
		}
		if len(p.ProtocolsAt(latest.Start)) == 0 {
			return fmt.Errorf("ecosystem: %s supports no protocol at the latest snapshot", p.ID)
		}
		if len(p.PlatformsAt(latest.Start)) == 0 {
			return fmt.Errorf("ecosystem: %s supports no platform at the latest snapshot", p.ID)
		}
		if len(p.CDNsAt(latest.Start)) == 0 {
			return fmt.Errorf("ecosystem: %s has no active CDN at the latest snapshot", p.ID)
		}
		for _, name := range p.cdnNames {
			if _, ok := e.CDNs.ByName(name); !ok {
				return fmt.Errorf("ecosystem: %s assigned unknown CDN %q", p.ID, name)
			}
		}
		if p.IsSyndicator && len(p.SyndicatesTo) > 0 {
			return fmt.Errorf("ecosystem: %s is both owner and full syndicator", p.ID)
		}
	}
	return nil
}
