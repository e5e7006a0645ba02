package wal

import (
	"fmt"
	"os"

	"vmp/internal/obs"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Epoch             int64 // engine epoch of the replayed checkpoint (0 if none)
	CheckpointRecords int64 // records delivered from the checkpoint
	SegmentRecords    int64 // records delivered from segments
	SkippedRecords    int64 // segment records filtered as checkpoint-covered
	TornTails         int   // 1 if the final segment stopped at a torn record
}

// Delivered is the total record count handed to fn.
func (s ReplayStats) Delivered() int64 { return s.CheckpointRecords + s.SegmentRecords }

// Replay streams everything the log holds through fn: first the
// latest checkpoint (the last published generation) a frame at a time,
// then every surviving segment record above the checkpoint's bound in
// sequence order — one call per record, so each acknowledged batch
// arrives whole, the records of all its parts together. In vmpd, fn is
// the normal Engine.Ingest path; telemetry.CanonicalSort makes the
// delivery order irrelevant to the generation that results.
//
// The slice passed to fn is only valid for the duration of the call
// (it shares the decoder's reuse contract); fn must copy what it
// keeps, which Engine.Ingest does.
//
// A torn final record in the last segment — the signature of a crash
// mid-append — stops replay cleanly at the last good sequence, counted and logged, never a panic or an error. Any
// other inconsistency (a sequence gap, corruption inside a closed
// segment, a CRC-valid record that does not parse) is a hard error:
// the log is not trustworthy and the operator must decide.
//
// Replay only reads; it may be run repeatedly (replay idempotence is
// pinned by tests) and concurrently with appends, though the boot
// sequence naturally runs it before the first append.
func (l *Log) Replay(fn func(recs []record.ViewRecord) error, parent obs.SpanID) (ReplayStats, error) {
	sp := l.tracer.Start("wal.replay", parent)
	stats, err := l.replay(fn)
	if err != nil {
		sp.End(obs.KV("error", 1))
		return stats, err
	}
	l.replayed.Add(stats.Delivered())
	sp.End(
		obs.KV("checkpoint_records", stats.CheckpointRecords),
		obs.KV("segment_records", stats.SegmentRecords),
		obs.KV("skipped", stats.SkippedRecords),
		obs.KV("torn_tails", int64(stats.TornTails)),
	)
	return stats, nil
}

func (l *Log) replay(fn func(recs []record.ViewRecord) error) (ReplayStats, error) {
	// Snapshot the file lists under mu; the reads below run unlocked.
	l.mu.Lock()
	var ckpt *ckptInfo
	if n := len(l.ckpts); n > 0 {
		c := l.ckpts[n-1]
		ckpt = &c
	}
	bound := l.cpBound
	segs := append([]segmentInfo(nil), l.segs...)
	l.mu.Unlock()

	var stats ReplayStats
	dec := wire.NewDecoder()
	if ckpt != nil {
		h, err := replayCheckpoint(ckpt.path, dec, func(recs []record.ViewRecord) error {
			stats.CheckpointRecords += int64(len(recs))
			return fn(recs)
		})
		if err != nil {
			return stats, err
		}
		stats.Epoch = h.epoch
	}
	for si, seg := range segs {
		if seg.last < seg.first {
			continue // empty active segment
		}
		if seg.last <= bound {
			// Entirely covered by the checkpoint (Commit failed to
			// remove it, or crashed before it could): skip the file.
			stats.SkippedRecords += int64(seg.last - seg.first + 1)
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return stats, fmt.Errorf("wal: %w", err)
		}
		expected := seg.first
		torn, err := DecodeSegment(data, dec, func(seq uint64, recs []record.ViewRecord) error {
			if seq != expected {
				return fmt.Errorf("wal: %s: sequence %d where %d expected", seg.path, seq, expected)
			}
			expected++
			if seq <= bound {
				stats.SkippedRecords += int64(len(recs))
				return nil
			}
			stats.SegmentRecords += int64(len(recs))
			return fn(recs)
		})
		if err != nil {
			return stats, err
		}
		if torn != nil {
			if si != len(segs)-1 {
				// A torn record below the tail cannot be a crashed
				// append: the next segment exists, so the log was
				// written past this point.
				return stats, fmt.Errorf("wal: %s: %s at offset %d in a non-final segment", seg.path, torn.Reason, torn.Off)
			}
			l.tracer.Emit("wal_replay_torn", obs.KV("offset", torn.Off), obs.KV("last_seq", int64(expected-1)))
			stats.TornTails++
		} else if si != len(segs)-1 && expected != seg.last+1 {
			// Ends on a record boundary, but short of the sequence the
			// next segment's name says it was written up to.
			return stats, fmt.Errorf("wal: %s: ends at sequence %d, the next segment starts at %d", seg.path, expected-1, seg.last+1)
		}
	}
	return stats, nil
}
