package wal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

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
	TornTails         int   // 1 if the final segment stopped at a torn record, or Open cut one off before this first replay
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
// Framing (CRCs, lengths, sequences) and fn run on the caller's
// goroutine; only the wire decode fans out, over GOMAXPROCS workers
// (decodeInOrder). The first Replay takes the images Open verified.
//
// The slice passed to fn is only valid for the duration of the call
// (it shares the decoder's reuse contract); fn must copy what it
// keeps, which Engine.Ingest does.
//
// A torn final record in the last segment — the signature of a crash
// mid-append — stops replay cleanly at the last good sequence, counted,
// never a panic or an error. The wal.replay span carries where the tail
// was cut (torn_offset, torn_last_seq), whether this replay stopped at
// it or Open cut it before the first replay. Any other inconsistency (a
// sequence gap, corruption inside a closed segment, a CRC-valid record
// that does not parse) is a hard error: the log is not trustworthy and
// the operator must decide.
//
// Replay only reads; it may be run repeatedly (replay idempotence is
// pinned by tests) and concurrently with appends, though the boot
// sequence naturally runs it before the first append.
func (l *Log) Replay(fn func(recs []record.ViewRecord) error, parent obs.SpanID) (ReplayStats, error) {
	sp := l.tracer.Start("wal.replay", parent)
	decs := make([]*wire.Decoder, runtime.GOMAXPROCS(0))
	for i := range decs {
		decs[i] = wire.NewDecoder()
	}
	stats, units, torn, err := l.replay(decs, fn)
	if err != nil {
		sp.End(obs.KV("error", 1))
		return stats, err
	}
	l.replayed.Add(stats.Delivered())
	attrs := []obs.Attr{
		obs.KV("checkpoint_records", stats.CheckpointRecords),
		obs.KV("segment_records", stats.SegmentRecords),
		obs.KV("skipped", stats.SkippedRecords),
		obs.KV("torn_tails", int64(stats.TornTails)),
		obs.KV("workers", int64(len(decs))),
		obs.KV("units", units),
	}
	if torn != nil {
		attrs = append(attrs, obs.KV("torn_offset", torn.off), obs.KV("torn_last_seq", int64(torn.last)))
	}
	sp.End(attrs...)
	return stats, nil
}

// tornTail is where a torn final record was cut off: its offset in the
// segment, and the last good sequence before it.
type tornTail struct {
	off  int64
	last uint64
}

func (l *Log) replay(decs []*wire.Decoder, fn func(recs []record.ViewRecord) error) (stats ReplayStats, units int64, tail *tornTail, err error) {
	// Snapshot the file lists under mu, and take what Open verified;
	// the reads below run unlocked.
	l.mu.Lock()
	var ckpt *ckptInfo
	if n := len(l.ckpts); n > 0 {
		c := l.ckpts[n-1]
		ckpt = &c
	}
	bound := l.cpBound
	segs := append([]segmentInfo(nil), l.segs...)
	bootCkpt, bootSeg, bootTail := l.bootCkpt, l.bootSeg, l.bootTail
	l.bootCkpt, l.bootSeg, l.bootTail = nil, segmentInfo{}, nil
	tail, l.bootTorn = l.bootTorn, nil
	l.mu.Unlock()
	if tail != nil {
		stats.TornTails++
	}

	deliver := func(u *unit, recs []record.ViewRecord) error {
		units++
		switch {
		case u.ckpt != "":
			stats.CheckpointRecords += int64(len(recs))
		case u.seq <= bound:
			stats.SkippedRecords += int64(len(recs))
			return nil
		default:
			stats.SegmentRecords += int64(len(recs))
		}
		return fn(recs)
	}
	if ckpt != nil {
		h := bootCkpt
		if h == nil {
			if h, err = readCheckpoint(ckpt.path); err != nil {
				return stats, units, tail, err
			}
		}
		stats.Epoch = h.epoch
		if err := decodeInOrder(decs, h.units, deliver); err != nil {
			return stats, units, tail, err
		}
		if uint64(stats.CheckpointRecords) != h.total {
			return stats, units, tail, fmt.Errorf("wal: checkpoint %s: frames hold %d records, header declares %d", ckpt.path, stats.CheckpointRecords, h.total)
		}
	}
	for si, seg := range segs {
		final := si == len(segs)-1
		if seg.last < seg.first {
			continue // empty active segment
		}
		if seg.last <= bound {
			// Entirely covered by the checkpoint (Commit failed to
			// remove it, or crashed before it could): skip the file.
			stats.SkippedRecords += int64(seg.last - seg.first + 1)
			continue
		}
		var us []unit
		var torn *tornRecord
		if final && seg == bootSeg {
			us = bootTail // Open cut any torn tail off
		} else if us, torn, err = segmentUnits(seg); err != nil {
			return stats, units, tail, err
		}
		if err := decodeInOrder(decs, us, deliver); err != nil {
			return stats, units, tail, err
		}
		last := seg.first + uint64(len(us)) - 1
		if torn != nil {
			if !final {
				// A torn record below the tail cannot be a crashed
				// append: the next segment exists, so the log was
				// written past this point.
				return stats, units, tail, fmt.Errorf("wal: %s: %s at offset %d in a non-final segment", seg.path, torn.reason, torn.off)
			}
			tail = &tornTail{off: torn.off, last: last}
			stats.TornTails++
		} else if !final && last != seg.last {
			// Ends on a record boundary, but short of the sequence the
			// next segment's name says it was written up to.
			return stats, units, tail, fmt.Errorf("wal: %s: ends at sequence %d, the next segment starts at %d", seg.path, last, seg.last+1)
		}
	}
	return stats, units, tail, nil
}

// unit is one piece of the log's wire decode: a checkpoint frame, or
// the frames of one segment record.
type unit struct {
	frames []byte
	ckpt   string // the checkpoint's path; "" for a segment record
	seq    uint64 // a segment record's sequence
	off    int64  // and its offset in the segment
}

// decodeErr names the unit that failed to decode.
func (u unit) decodeErr(err error) error {
	if u.ckpt != "" {
		return fmt.Errorf("wal: checkpoint %s: %w", u.ckpt, err)
	}
	return fmt.Errorf("wal: record seq %d at offset %d: %w", u.seq, u.off, err)
}

// decodeInOrder decodes units on a worker per decoder and hands their
// records to deliver in order, on the calling goroutine. Unit i goes to
// worker i mod len(decs), which decodes its next unit only once deliver
// has returned for this one — a decoder's records are valid only until
// its next decode. The workers have exited when it returns.
func decodeInOrder(decs []*wire.Decoder, units []unit, deliver func(u *unit, recs []record.ViewRecord) error) error {
	type decoded struct {
		recs []record.ViewRecord
		err  error
	}
	w := min(len(decs), len(units))
	out, next := make([]chan decoded, w), make([]chan struct{}, w)
	var wg sync.WaitGroup
	defer wg.Wait()
	for k := range w {
		out[k], next[k] = make(chan decoded, 1), make(chan struct{}, 1)
		defer close(next[k]) // before wg.Wait: a worker waiting for its turn is done
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r bytes.Reader
			for i := k; i < len(units); i += w {
				r.Reset(units[i].frames)
				recs, err := decs[k].DecodeAll(&r)
				out[k] <- decoded{recs, err}
				if _, ok := <-next[k]; !ok {
					return
				}
			}
		}()
	}
	for i := range units {
		d := <-out[i%w]
		if d.err != nil {
			return units[i].decodeErr(d.err)
		}
		if err := deliver(&units[i], d.recs); err != nil {
			return err
		}
		next[i%w] <- struct{}{}
	}
	return nil
}
