package syndication

import (
	"fmt"

	"vmp/internal/cdnsim"
	"vmp/internal/dist"
	"vmp/internal/manifest"
	"vmp/internal/netmodel"
	"vmp/internal/player"
	"vmp/internal/stats"
)

// QoESlice pins down one Fig 15/16 measurement slice: iPad clients in
// one geography on one ISP, served by one CDN — the paper compares
// (ISP X, CDN A) and (ISP Y, CDN B).
type QoESlice struct {
	ISP      netmodel.ISP
	Conn     netmodel.ConnType
	CDN      *cdnsim.CDN
	Sessions int     // playback sessions per publisher
	WatchSec float64 // intended watch time per session
	Seed     uint64
}

// QoEDist is the measured distribution of delivery performance for one
// publisher's clients on a slice.
type QoEDist struct {
	AvgBitrate  *stats.ECDF // per-session average bitrate, Kbps
	RebufRatio  *stats.ECDF // per-session rebuffering ratio
	MedianKbps  float64
	P90RebufPct float64
}

// CompareQoE plays real adaptive-streaming sessions for the owner's
// and a syndicator's packaging of the same title over the same network
// slice, reproducing the Fig 15/16 methodology: identical device
// class, connection type, geography, ISP, and CDN — the only
// difference is each publisher's independently chosen bitrate ladder.
func CompareQoE(owner, synd PublisherLadder, titleID string, slice QoESlice) (ownerDist, syndDist QoEDist, err error) {
	if slice.Sessions <= 0 {
		return QoEDist{}, QoEDist{}, fmt.Errorf("syndication: non-positive session count")
	}
	if slice.CDN == nil {
		return QoEDist{}, QoEDist{}, fmt.Errorf("syndication: nil CDN")
	}
	root := dist.NewSource(slice.Seed)
	ownerDist, err = measure(owner, titleID, slice, root.Split("owner"))
	if err != nil {
		return
	}
	syndDist, err = measure(synd, titleID, slice, root.Split("synd"))
	return
}

// measure plays slice.Sessions sessions of one publisher's packaging.
func measure(pub PublisherLadder, titleID string, slice QoESlice, src *dist.Source) (QoEDist, error) {
	spec := &manifest.Spec{
		VideoID:     fmt.Sprintf("%s-%s", pub.ID, titleID),
		DurationSec: 2 * slice.WatchSec, // content outlasts the viewer
		ChunkSec:    4,
		AudioKbps:   96,
		Ladder:      pub.Ladder,
	}
	base := fmt.Sprintf("http://cdn-%s.example.net/%s", slice.CDN.Name, pub.ID)
	text, err := manifest.Generate(spec, base)
	if err != nil {
		return QoEDist{}, err
	}
	m, err := manifest.Parse(text)
	if err != nil {
		return QoEDist{}, err
	}
	profile := netmodel.PathProfile(slice.ISP, slice.Conn, slice.CDN.Quality(slice.ISP.Name))
	var bitrates, rebufs []float64
	for i := 0; i < slice.Sessions; i++ {
		ssrc := src.Splitf("session", i)
		res, err := player.Play(player.Config{
			Manifest: m,
			Trace:    profile.NewTrace(ssrc),
			CDN:      slice.CDN,
			ISP:      slice.ISP.Name,
			WatchSec: slice.WatchSec,
		})
		if err != nil {
			return QoEDist{}, fmt.Errorf("syndication: session %d: %w", i, err)
		}
		bitrates = append(bitrates, res.AvgBitrateKbps)
		rebufs = append(rebufs, res.RebufferRatio())
	}
	d := QoEDist{
		AvgBitrate: stats.NewECDF(bitrates),
		RebufRatio: stats.NewECDF(rebufs),
	}
	d.MedianKbps = d.AvgBitrate.MustQuantile(0.5)
	d.P90RebufPct = 100 * d.RebufRatio.MustQuantile(0.9)
	return d, nil
}

// DefaultSlices returns the two ISP×CDN slices of Figs 15 and 16,
// using the given CDN registry.
func DefaultSlices(cdns *cdnsim.Registry, sessions int, seed uint64) ([]QoESlice, error) {
	ispX, ok := netmodel.ISPByName("ISP-X")
	if !ok {
		return nil, fmt.Errorf("syndication: ISP-X not registered")
	}
	ispY, ok := netmodel.ISPByName("ISP-Y")
	if !ok {
		return nil, fmt.Errorf("syndication: ISP-Y not registered")
	}
	cdnA, ok := cdns.ByName("A")
	if !ok {
		return nil, fmt.Errorf("syndication: CDN A not registered")
	}
	cdnB, ok := cdns.ByName("B")
	if !ok {
		return nil, fmt.Errorf("syndication: CDN B not registered")
	}
	// Both slices compare clients on the same connection type (the
	// paper controls for WiFi/4G/Wired); 4G paths exhibit the
	// throughput variability that separates the two publishers'
	// rebuffering distributions in Fig 16.
	return []QoESlice{
		{ISP: ispX, Conn: netmodel.Cellular, CDN: cdnA, Sessions: sessions, WatchSec: 1200, Seed: seed},
		{ISP: ispY, Conn: netmodel.Cellular, CDN: cdnB, Sessions: sessions, WatchSec: 1200, Seed: seed + 1},
	}, nil
}
