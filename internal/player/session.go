// Package player implements chunked adaptive streaming playback: the
// client half of the video data and control planes (§2). A session
// plays a parsed HLS VoD manifest, runs a bitrate-adaptation loop over
// simulated network paths and CDN edges, and measures what the paper's
// telemetry measures — viewing time, average bitrate, and rebuffering —
// so that the syndication performance comparisons (Figs 15 and 16)
// emerge from actual playback rather than assumed numbers. Playback
// measures only those two figures: the view records of the dataset are
// sampled, not played.
package player

import (
	"errors"

	"vmp/internal/cdnsim"
	"vmp/internal/manifest"
	"vmp/internal/netmodel"
)

// Config describes one playback session.
type Config struct {
	Manifest *manifest.Manifest // parsed manifest to play
	Trace    *netmodel.Trace    // network path to the chosen CDN; required
	CDN      *cdnsim.CDN        // serving CDN; nil disables edge-cache effects
	ISP      string             // client ISP, selects the CDN edge POP
	WatchSec float64            // how long the user intends to watch
}

// Result is what one session measures: the per-view metrics the
// telemetry layer reports to the collector (§3 — viewing time, average
// bitrate, rebuffering time).
type Result struct {
	PlayedSec      float64 // media seconds actually played
	RebufferSec    float64 // stall time after startup
	StartupSec     float64 // join time before first frame
	AvgBitrateKbps float64 // time-weighted average video bitrate
	ChunksFetched  int
	EdgeHits       int
}

// RebufferRatio returns stall time as a fraction of the view (§6's
// "fraction of the view that experiences rebuffering").
func (r Result) RebufferRatio() float64 {
	total := r.PlayedSec + r.RebufferSec
	if total <= 0 {
		return 0
	}
	return r.RebufferSec / total
}

// originMissPenalty scales a chunk's download time when the edge misses
// and must fetch through to the origin.
const originMissPenalty = 1.35

// startupChunks is the buffer, in chunks, a session fills before
// playback starts.
const startupChunks = 2

// The buffer-based adaptation map (BBA, Huang et al., SIGCOMM'14):
// below reservoirSec of buffer play the lowest rung, above cushionSec
// the highest, and interpolate linearly in between.
const (
	reservoirSec = 5.0
	cushionSec   = 30.0
)

// chooseRendition is the bitrate decision: the rung index BBA maps
// bufferSec of buffered media to.
func chooseRendition(ladder manifest.Ladder, bufferSec float64) int {
	switch {
	case bufferSec <= reservoirSec:
		return 0
	case bufferSec >= cushionSec:
		return len(ladder) - 1
	default:
		frac := (bufferSec - reservoirSec) / (cushionSec - reservoirSec)
		return int(frac * float64(len(ladder)-1))
	}
}

// Play runs one playback session to completion: either the user's
// intended watch time is reached or the content ends.
func Play(cfg Config) (Result, error) {
	m := cfg.Manifest
	switch {
	case m == nil:
		return Result{}, errors.New("player: nil manifest")
	case len(m.Ladder) == 0:
		return Result{}, errors.New("player: manifest has empty ladder")
	case cfg.Trace == nil:
		return Result{}, errors.New("player: nil network trace")
	case cfg.WatchSec <= 0:
		return Result{}, errors.New("player: non-positive watch duration")
	}

	var (
		res       Result
		bufferSec float64
		lastRend  = -1
		weighted  float64 // Σ bitrate × seconds played at it
	)

	maxChunks := m.ChunkCount()
	for i := 0; i < maxChunks && res.PlayedSec < cfg.WatchSec; i++ {
		rend := chooseRendition(m.Ladder, bufferSec)
		chunkBytes := int64(float64(m.Ladder[rend].BitrateKbps+m.AudioKbps) * 1000 * m.ChunkSec / 8)
		dlSec := cfg.Trace.DownloadSec(chunkBytes)
		if cfg.CDN != nil {
			if cfg.CDN.ServeChunk(cfg.ISP, m.ChunkURL(rend, i), chunkBytes) {
				res.EdgeHits++
			} else {
				dlSec *= originMissPenalty
			}
		}
		res.ChunksFetched++

		if res.ChunksFetched <= startupChunks {
			// Still joining: downloads accrue to startup delay.
			res.StartupSec += dlSec
			bufferSec += m.ChunkSec
		} else {
			// Playing while downloading: the buffer drains by the
			// download time; hitting empty stalls the user.
			drain := dlSec
			if drain > bufferSec {
				res.RebufferSec += drain - bufferSec
				res.PlayedSec += bufferSec
				weighted += bufferSec * playedAt(m, lastRend)
				bufferSec = 0
			} else {
				bufferSec -= drain
				res.PlayedSec += drain
				weighted += drain * playedAt(m, lastRend)
			}
			bufferSec += m.ChunkSec
		}
		lastRend = rend

		if i == maxChunks-1 {
			// Content exhausted: drain the buffer.
			remaining := cfg.WatchSec - res.PlayedSec
			drain := bufferSec
			if drain > remaining {
				drain = remaining
			}
			if drain > 0 {
				res.PlayedSec += drain
				weighted += drain * playedAt(m, lastRend)
			}
		}
	}
	if res.PlayedSec > 0 {
		res.AvgBitrateKbps = weighted / res.PlayedSec
	}
	return res, nil
}

// playedAt returns the video bitrate playing while rendition r's chunk
// downloads; before any chunk has completed the lowest rung plays.
func playedAt(m *manifest.Manifest, lastRend int) float64 {
	if lastRend < 0 {
		lastRend = 0
	}
	return float64(m.Ladder[lastRend].BitrateKbps)
}
