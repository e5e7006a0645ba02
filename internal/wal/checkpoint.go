package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vmp/internal/obs"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// On-disk checkpoint layout. A checkpoint is the published generation
// made durable, so the segments whose records it covers can be
// deleted without ever shrinking what a replay reconstructs:
//
//	"VWCK"          — magic
//	u8 version      — 1
//	uvarint epoch   — engine epoch that published the generation
//	uvarint total   — record count across all frames
//	uvarint nshards — bound count: 1 (the field predates the single
//	                  segment stream, when each shard had a log)
//	nshards×uvarint — WAL bounds: segment records with
//	                  seq <= bounds[0] are in this checkpoint
//	frames          — the generation's records as wire binary frames
//	u32le crc32c    — Castagnoli CRC over every preceding byte
//
// The file is written to a temp name, fsynced, renamed into place,
// and the directory fsynced — so a crash anywhere in Commit leaves
// either the old checkpoint or the new one, both intact. Writing one
// costs the whole generation, so Commit does it only when the log has
// grown as large as the checkpoint it would replace (see Commit).
// Checkpoint names carry a WAL-internal monotonic ID (engine epochs
// restart at zero each boot, so they cannot order files across
// restarts); the epoch inside is metadata.
const (
	ckptVersion      = 1
	ckptHeaderMin    = 5
	ckptChunkRecords = 8192
	// ckptBytesPerRecord sizes the encode buffer of a log's first
	// checkpoint; later ones go by the density of the one before.
	// Canonically sorted generations have measured 82–123 B/record.
	ckptBytesPerRecord = 128
)

var ckptMagic = []byte{'V', 'W', 'C', 'K'}

// ckptInfo is one on-disk checkpoint file.
type ckptInfo struct {
	id   uint64
	path string
}

// ckptHeader is a parsed checkpoint minus its frames.
type ckptHeader struct {
	epoch  int64
	total  uint64
	bounds []uint64
	frames []byte // the wire frames region, CRC already verified
	units  []unit // frames, framed by readCheckpoint
	size   int64  // the whole file's length
}

// parseCheckpoint validates data's CRC and parses the header. Any
// mismatch is a hard error: a checkpoint is written atomically, so
// unlike a segment tail there is no benign torn form.
func parseCheckpoint(data []byte) (*ckptHeader, error) {
	if len(data) < ckptHeaderMin+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	if !bytes.Equal(body[:4], ckptMagic) {
		return nil, fmt.Errorf("wal: bad checkpoint magic %q", body[:4])
	}
	if body[4] != ckptVersion {
		return nil, fmt.Errorf("wal: unknown checkpoint version %d", body[4])
	}
	rest := body[ckptHeaderMin:]
	h := ckptHeader{size: int64(len(data))}
	u, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("wal: checkpoint: bad epoch varint")
	}
	h.epoch = int64(u)
	rest = rest[n:]
	if h.total, n = binary.Uvarint(rest); n <= 0 {
		return nil, fmt.Errorf("wal: checkpoint: bad total varint")
	}
	rest = rest[n:]
	nshards, n := binary.Uvarint(rest)
	if n <= 0 || nshards > 1<<16 {
		return nil, fmt.Errorf("wal: checkpoint: bad shard count")
	}
	rest = rest[n:]
	h.bounds = make([]uint64, nshards)
	for i := range h.bounds {
		if h.bounds[i], n = binary.Uvarint(rest); n <= 0 {
			return nil, fmt.Errorf("wal: checkpoint: bad bound varint %d", i)
		}
		rest = rest[n:]
	}
	h.frames = rest
	return &h, nil
}

// loadCheckpointHeader reads what Open needs from the latest
// checkpoint, CRC-verified: its bound, and its size and record count
// for the cadence rule; it keeps the framed image for the first
// Replay. A checkpoint with several bounds was written
// over per-shard logs, and its bounds say nothing about this stream.
func (l *Log) loadCheckpointHeader(path string) error {
	h, err := readCheckpoint(path)
	if err != nil {
		return err
	}
	if len(h.bounds) != 1 {
		return fmt.Errorf("wal: checkpoint %s carries %d shard bounds, written by the per-shard layout; this log is one segment stream", path, len(h.bounds))
	}
	l.cpBound = h.bounds[0]
	l.ckptBytes, l.ckptRecords = h.size, int64(h.total)
	l.bootCkpt = h
	return nil
}

// readCheckpoint reads and parses a checkpoint, and frames its frames
// region into decode units, one frame each.
func readCheckpoint(path string) (*ckptHeader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	h, err := parseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	for frames := h.frames; len(frames) > 0; {
		if len(frames) < 4 {
			return nil, fmt.Errorf("wal: checkpoint %s: truncated frame length", path)
		}
		n := int64(binary.LittleEndian.Uint32(frames))
		if n > wire.MaxFrameBytes || int64(len(frames))-4 < n {
			return nil, fmt.Errorf("wal: checkpoint %s: bad frame length %d", path, n)
		}
		h.units = append(h.units, unit{frames: frames[:4+n], ckpt: path})
		frames = frames[4+n:]
	}
	return h, nil
}

// encodeCheckpoint builds the full checkpoint file image of n records
// in a buffer presized for perRecord bytes a record. chunk(lo, hi)
// returns records [lo, hi); it is asked for one frame's worth, at most
// ckptChunkRecords, at a time, in order, and its result is not kept
// past the next call.
func encodeCheckpoint(epoch int64, n int, chunk func(lo, hi int) []record.ViewRecord, bounds []uint64, perRecord int64) ([]byte, error) {
	enc := wire.NewEncoder()
	buf := make([]byte, 0, 1<<16+int64(n)*perRecord)
	buf = append(buf, ckptMagic...)
	buf = append(buf, ckptVersion)
	buf = binary.AppendUvarint(buf, uint64(epoch))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(bounds)))
	for _, b := range bounds {
		buf = binary.AppendUvarint(buf, b)
	}
	for lo := 0; lo < n; lo += ckptChunkRecords {
		var err error
		if buf, err = enc.AppendFrame(buf, chunk(lo, min(lo+ckptChunkRecords, n))); err != nil {
			return nil, err
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// Commit offers the log a published generation to fold forward to.
// bounds must be the Bounds() reading the engine took under its
// admission lock before flushing the epoch, so "covered" is exact:
// seq <= bounds[0] is in records, seq > bounds[0] is not.
//
// A checkpoint costs the whole generation — encode, write, fsync — and
// an epoch adds a sliver of it, so Commit writes one only when the log
// has earned it: when the segment bytes appended since the last
// checkpoint have reached that checkpoint's size. Then it writes
// records as a new checkpoint and deletes every segment the checkpoint
// covers — the truncation. Otherwise it returns without touching the
// disk: the segments stay, and replay recovers the same records from
// the old checkpoint plus them. Rewriting on doubling keeps the total
// checkpoint work linear in the bytes logged, and bounds both the disk
// the log holds and the segment bytes a boot replays at about twice
// the checkpoint. A log without a checkpoint has earned one at once;
// an idle epoch (nothing appended) never has.
//
// Commit is degradation-safe: any failure leaves the previous
// checkpoint and all segments intact, so the log keeps growing but
// loses nothing — callers count the error and carry on. Commits are
// expected to be serialized by the caller (the engine's snapshot
// lock); appends may run concurrently.
func (l *Log) Commit(epoch int64, records []record.ViewRecord, bounds []uint64, parent obs.SpanID) error {
	return l.commitChunks(epoch, len(records), func(lo, hi int) []record.ViewRecord { return records[lo:hi] }, bounds, parent)
}

// CommitRows is Commit for a generation whose records are not one slice
// (a telemetry.Dataset holds a pointer per row): n is their number, and
// fill copies records [lo, lo+len(dst)) into dst. The log calls fill
// only when it writes a checkpoint — which most commits do not — and
// then one chunk of at most ckptChunkRecords rows at a time, into one
// buffer it reuses, so the generation is never copied whole.
func (l *Log) CommitRows(epoch int64, n int, fill func(dst []record.ViewRecord, lo int), bounds []uint64, parent obs.SpanID) error {
	var buf []record.ViewRecord
	return l.commitChunks(epoch, n, func(lo, hi int) []record.ViewRecord {
		if buf == nil {
			buf = make([]record.ViewRecord, min(n, ckptChunkRecords))
		}
		fill(buf[:hi-lo], lo)
		return buf[:hi-lo]
	}, bounds, parent)
}

// commitChunks is Commit of n records that chunk hands over a frame's
// worth at a time (see encodeCheckpoint), under a wal.truncate span.
func (l *Log) commitChunks(epoch int64, n int, chunk func(lo, hi int) []record.ViewRecord, bounds []uint64, parent obs.SpanID) error {
	sp := l.tracer.Start("wal.truncate", parent)
	records, written, truncated, err := l.commit(epoch, n, chunk, bounds)
	if err != nil {
		sp.End(obs.KV("error", 1))
		return err
	}
	sp.End(obs.KV("epoch", epoch), obs.KV("records", records), obs.KV("written", written), obs.KV("truncated", truncated))
	return nil
}

// commit returns how many records the checkpoint it wrote holds (0 if
// it wrote none), whether it wrote one (1 or 0, as a span attribute) and
// how many log entries it truncated.
func (l *Log) commit(epoch int64, n int, chunk func(lo, hi int) []record.ViewRecord, bounds []uint64) (records, written, truncated int64, err error) {
	l.mu.Lock()
	if len(bounds) != 1 {
		l.mu.Unlock()
		return 0, 0, 0, fmt.Errorf("wal: commit with %d bounds; the log is one stream and has one", len(bounds))
	}
	bound := bounds[0]
	if l.sinceCkpt < l.ckptBytes {
		l.mu.Unlock()
		l.ckptsSkip.Add(1)
		return 0, 0, 0, nil
	}
	id := l.nextCkptID
	// Appends that race the write below stay counted. Those between the
	// engine's Bounds reading and here count as covered though they are
	// not: a batch or two, which only delays the next checkpoint.
	covered := l.sinceCkpt
	perRecord := int64(ckptBytesPerRecord)
	if l.ckptRecords > 0 {
		perRecord = l.ckptBytes/l.ckptRecords + 1
	}
	l.mu.Unlock()

	// Build and persist the new checkpoint without holding mu —
	// appends continue while the generation is written out.
	img, err := encodeCheckpoint(epoch, n, chunk, bounds, perRecord+perRecord/8)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: encoding checkpoint: %w", err)
	}
	path := filepath.Join(l.dir, fmt.Sprintf("checkpoint-%016x.ckpt", id))
	if err := l.writeFileDurable(path, img); err != nil {
		return 0, 0, 0, err
	}
	l.ckptsDone.Add(1)

	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.ckpts
	l.ckpts = []ckptInfo{{id: id, path: path}}
	l.nextCkptID = id + 1
	l.cpBound = bound
	l.ckptBytes, l.ckptRecords = int64(len(img)), int64(n)
	l.sinceCkpt -= covered
	l.bootCkpt, l.bootSeg, l.bootTail = nil, segmentInfo{}, nil // Open's images no longer describe the log

	// Everything at or below the bounds is durable in the checkpoint;
	// drop the segments (and superseded checkpoints) that carried it.
	// Removal failures are reported but cannot lose data — replay
	// filters seq <= bounds anyway.
	var firstErr error
	keep := l.segs[:0]
	for j, seg := range l.segs {
		if seg.last > bound || seg.last < seg.first {
			keep = append(keep, seg)
			continue
		}
		if j == len(l.segs)-1 && l.f != nil {
			// The active segment is fully covered: close it so the
			// next append starts a fresh file above the bound.
			err := l.f.Close()
			l.f = nil
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: closing segment: %w", err)
			}
		}
		if err := os.Remove(seg.path); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: %w", err)
			}
			keep = append(keep, seg)
			continue
		}
		truncated += int64(seg.last - seg.first + 1)
	}
	l.segs = keep
	for _, c := range old {
		if err := os.Remove(c.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: %w", err)
		}
	}
	l.truncated.Add(truncated)
	return int64(n), 1, truncated, firstErr
}

// writeFileDurable writes data at path atomically and durably: temp
// file, fsync, rename, directory fsync. The temp file and the directory
// sync go through the same create and syncDir a segment does, so one
// fault seam covers both. On failure nothing new is left under path or
// its temp name, and the previous checkpoint is still the latest.
func (l *Log) writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := l.create(tmp)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()      // the write error is the one worth reporting
		_ = os.Remove(tmp) // left behind, it fails the next create, and Open clears it
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(filepath.Dir(path)); err != nil {
		// The rename may or may not survive a crash; withdrawn, the
		// checkpoint this commit failed to write is not loaded either.
		_ = os.Remove(path)
		return err
	}
	return nil
}

// syncDir fsyncs a directory, which is what makes a name created in it
// or renamed into it survive a crash: fsyncing the file alone does not.
func syncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncErr := dir.Sync()
	if err := dir.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	if syncErr != nil {
		return fmt.Errorf("wal: syncing directory: %w", syncErr)
	}
	return nil
}
