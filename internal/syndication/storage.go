package syndication

import (
	"fmt"

	"vmp/internal/cdnsim"
)

// The Fig 18 experiment: a popular video catalogue served by its owner
// and two syndicators. The owner stores the catalogue on CDNs A and B
// with 9 bitrates; one syndicator on A, B, and C with 7 bitrates; the
// other on A, B, and D with 14. The rung placements below reproduce
// the overlap structure the HLS ladder guidelines induce (§6: "they
// tend to follow guidelines recommended by streaming protocol
// specifications"), which is what makes tolerance-based dedup
// effective.

// storageOwnerLadder etc. are the Fig 18 ladders. Offsets from the
// owner's rungs sit in the 3-5% band (merged at 5% tolerance) or the
// 8-9.5% band (merged only at 10%).
var (
	storageOwnerLadder = []int{150, 280, 520, 950, 1700, 3000, 5200, 8192, 10000}
	storageSynd1Ladder = []int{156, 300, 545, 995, 1780, 3250, 5650}
	storageSynd2Ladder = []int{157, 288, 565, 990, 1850, 3120, 5430, 8900, 10900, 420, 750, 1350, 2350, 4200}
)

// StorageConfig parameterizes the Fig 18 experiment.
type StorageConfig struct {
	// CatalogueHours is the total content duration of the catalogue.
	// The default reproduces the paper's 1916 TB per-CDN footprint.
	CatalogueHours float64
	// Titles splits the catalogue into this many video IDs.
	Titles int
}

// DefaultStorageConfig returns the configuration whose per-CDN
// footprint lands at the paper's 1916 TB.
func DefaultStorageConfig() StorageConfig {
	return StorageConfig{CatalogueHours: 50700, Titles: 600}
}

// CDNStorageReport is the Fig 18 outcome for one CDN.
type CDNStorageReport struct {
	CDN    string
	Report cdnsim.SavingsReport
}

// StorageExperiment holds the populated origins and results.
type StorageExperiment struct {
	Config  StorageConfig
	Reports []CDNStorageReport // CDNs A and B (the common ones)
}

// RunStorageExperiment populates fresh origin stores for CDNs A and B
// with the three publishers' copies of the catalogue and computes
// savings under exact, 5%, 10%, and integrated dedup for each. Those
// are the two CDNs all three publishers store on: the syndicators'
// copies on C and D (see the placement above) share an origin with no
// other publisher's, so Fig 18 does not report them and they are not
// pushed.
func RunStorageExperiment(cfg StorageConfig) (*StorageExperiment, error) {
	if cfg.CatalogueHours <= 0 || cfg.Titles <= 0 {
		return nil, fmt.Errorf("syndication: invalid storage config %+v", cfg)
	}
	common := []string{"A", "B"}
	origins := make([]*cdnsim.Origin, len(common))
	for i := range origins {
		origins[i] = cdnsim.NewOrigin()
	}
	perTitleSec := cfg.CatalogueHours * 3600 / float64(cfg.Titles)
	pubs := []struct {
		id     string
		ladder []cdnsim.Rendition // one title's renditions, ascending bitrate
	}{
		{"O18", titleLadder(storageOwnerLadder, perTitleSec)},
		{"SY1", titleLadder(storageSynd1Ladder, perTitleSec)},
		{"SY2", titleLadder(storageSynd2Ladder, perTitleSec)},
	}
	perTitle := 0
	for _, pub := range pubs {
		perTitle += len(pub.ladder)
	}
	for _, o := range origins {
		o.Reserve(cfg.Titles * perTitle)
	}
	ownerOf := make(map[string]string, cfg.Titles)
	for t := 0; t < cfg.Titles; t++ {
		contentID := fmt.Sprintf("cat18-%04d", t)
		ownerOf[contentID] = "O18"
		for _, pub := range pubs {
			for _, o := range origins {
				o.PushLadder(pub.id, contentID, pub.ladder)
			}
		}
	}
	exp := &StorageExperiment{Config: cfg}
	for i, cdn := range common {
		exp.Reports = append(exp.Reports, CDNStorageReport{
			CDN:    cdn,
			Report: origins[i].Savings(ownerOf),
		})
	}
	return exp, nil
}

// titleLadder sizes one title's renditions by the §6 storage model,
// bitrate × duration, sorted as an origin stores them. Every title has
// the same duration, so one ladder serves the whole catalogue.
func titleLadder(ladder []int, sec float64) []cdnsim.Rendition {
	out := make(map[int]int64, len(ladder))
	for _, kbps := range ladder {
		out[kbps] = int64(float64(kbps) * 1000 * sec / 8)
	}
	return cdnsim.SortLadder(out)
}
