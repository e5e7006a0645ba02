package ecosystem

import (
	"vmp/internal/device"
	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

// carriedTitles is how many of an owner's titles a syndicator carries:
// a carried view's ContentID is the owner's title at rank modulo it.
const carriedTitles = 600

// pubStrings holds the strings a publisher's records share, so that
// the generator builds each distinct VideoID, ContentID and manifest
// URL once, at its first draw, however many records draw it. Where the
// key is a catalogue rank the table is a slice; a URL, keyed by
// (protocol, CDN, rank), is in a map. One worker owns it at a time, and
// reset hands it, capacity and all, to the next publisher. User agents
// come from the ecosystem's table, which no one writes after New.
type pubStrings struct {
	agents   map[agentKey]string
	p        *Publisher
	videoIDs []string // by rank
	syndIDs  []string // a syndicator's own IDs for carried titles, by rank
	carried  []string // owners' ContentIDs, by CarriesFrom index × carriedTitles + rank
	bases    []string // CDN base URLs, by cdnNames index
	urls     map[uint64]string
}

// reset empties the tables for p's records.
func (t *pubStrings) reset(p *Publisher) {
	t.p = p
	synd, carried := 0, 0
	if p.IsSyndicator {
		synd, carried = p.CatalogSize, len(p.CarriesFrom)*carriedTitles
	}
	t.videoIDs = cleared(t.videoIDs, p.CatalogSize)
	t.syndIDs = cleared(t.syndIDs, synd)
	t.carried = cleared(t.carried, carried)
	t.bases = t.bases[:0]
	for _, name := range p.cdnNames {
		t.bases = append(t.bases, cdnBaseURL(name, p.ID))
	}
	if t.urls == nil {
		t.urls = make(map[uint64]string)
	}
	clear(t.urls)
}

// cleared returns s resized to n empty strings, reusing its array when
// that is big enough.
func cleared(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (t *pubStrings) videoID(rank int) string {
	return idAt(t.videoIDs, rank, t.p.ID, "-v", rank)
}

func (t *pubStrings) syndicatedID(rank int) string {
	return idAt(t.syndIDs, rank, t.p.ID, "-s", rank)
}

// carriedID is the ContentID of the owner at CarriesFrom[from]'s
// title at rank.
func (t *pubStrings) carriedID(from, rank int) string {
	return idAt(t.carried, from*carriedTitles+rank, t.p.CarriesFrom[from], "-v", rank)
}

// idAt returns tab[i], building it first as prefix+sep+rank, the rank
// in at least four digits.
func idAt(tab []string, i int, prefix, sep string, rank int) string {
	if tab[i] == "" {
		var buf [20]byte
		tab[i] = prefix + sep + string(appendRank(buf[:0], rank))
	}
	return tab[i]
}

// url returns the manifest URL of the title at rank (the syndicated
// copy's when syndicated, whose ID is videoID) served in proto by the
// CDN at cdnNames index cdn.
func (t *pubStrings) url(proto manifest.Protocol, cdn int, syndicated bool, rank int, videoID string) string {
	k := uint64(proto)<<48 | uint64(cdn)<<32 | uint64(rank)<<1
	if syndicated {
		k |= 1
	}
	u, ok := t.urls[k]
	if !ok {
		u = manifest.ManifestURL(proto, t.bases[cdn], videoID)
		t.urls[k] = u
	}
	return u
}

// agentKey names one browser user agent: a model at one SDK version.
type agentKey struct {
	model string
	ver   device.SDKVersion
}

// userAgents builds every browser user agent the population reports
// over sched: each browser model at each version in use at some
// snapshot's midpoint, up to lag quarters behind the newest. Records
// share these strings; the table is read-only once built.
func userAgents(sched simclock.Schedule, lag int) map[agentKey]string {
	names, _ := deviceMixAt(device.Browser, 0)
	agents := make(map[agentKey]string)
	for _, name := range names {
		model, _ := device.ByName(name)
		for _, snap := range sched {
			for _, v := range model.VersionsInUse(snapshotMid(snap), lag) {
				if k := (agentKey{name, v}); agents[k] == "" {
					agents[k] = model.UserAgent(v)
				}
			}
		}
	}
	return agents
}

// userAgent returns model's user agent at v: the table's string, when
// the table has it, so that the records reporting it share one.
func (t *pubStrings) userAgent(model device.Model, v device.SDKVersion) string {
	if ua, ok := t.agents[agentKey{model.Name, v}]; ok {
		return ua
	}
	return model.UserAgent(v)
}
