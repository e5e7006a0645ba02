// Package wal is the serving plane's durability subsystem: one
// append-only write-ahead log in front of internal/live's in-memory
// pending list, so a crash between admission and the next epoch cannot
// lose a batch the daemon acknowledged.
//
// The log is a single stream of segment files. Each admitted batch is
// appended to the active segment as one length-prefixed,
// CRC32C-checksummed record carrying the log's next sequence number and
// the batch as internal/wire binary frames — a binary POST's own, byte
// for byte, or else encoded a frame per part (the several-part records
// of the partitioned engine before this one still replay). The
// sequences are contiguous, so a gap or a truncated prefix is
// detectable. A batch costs one write and one fsync, both before the
// append returns, so an acknowledged batch survives kill -9 and power
// loss. Replay hands each batch back whole, whatever parts it was
// written in.
//
// Two failures make the log stop rather than guess. A write that fails
// part-way is cut back out of the segment, so the next record never
// lands behind garbage; if the cut fails too, the segment is sealed and
// every later append returns the error. A failed fsync is sticky for
// the same reason — the kernel may have dropped the dirty pages, and a
// later fsync would report success for data that is not on disk — so
// the log refuses appends until it is reopened and recovery has decided
// what survived.
//
// Published epochs fold the log forward once it has earned it: when the
// segment bytes appended since the last checkpoint reach that
// checkpoint's size, Commit writes the new generation as a checkpoint
// (atomically, via tmp + rename) and truncates every segment whose
// records it covers; until then Commit touches nothing and the
// segments carry the difference. On boot, Replay streams the latest
// checkpoint and every surviving segment record back through the
// caller — in vmpd, the normal Engine.Ingest path, where
// telemetry.CanonicalSort makes replay order-insensitive — before the
// HTTP listener opens. A torn final record (the expected aftermath of
// a crash mid-append) stops replay cleanly at the last good sequence,
// counted and shown on the wal.replay span, never with a panic. DESIGN.md §11 specifies the
// formats and the crash matrix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: log closed")

// Policy is ignored: every append is fsynced before it returns.
type Policy int

// PolicyBatch is ignored, as Options.Policy is.
const PolicyBatch Policy = 0

// Options parameterizes a Log. The zero value of every field gets a
// sensible default: the wall clock, a fresh registry, and a disabled
// tracer. The two sizes are unexported: only this package's tests
// shrink them.
type Options struct {
	Dir     string         // log directory, created if absent
	Shards  int            // ignored: the log is one stream whatever the engine's shard count
	Policy  Policy         // ignored: every append is fsynced before it returns
	Clock   simclock.Clock // time source for fsync latency
	Metrics *obs.Registry  // counter/histogram destination
	Trace   *obs.Tracer    // span destination (nil = disabled)

	segmentBytes int64 // active-segment rotation threshold; 16 MiB
	chunkRecords int   // view records per encoded log record, 16 384; a larger batch spans several
}

func (o Options) withDefaults() Options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 16 << 20
	}
	if o.chunkRecords <= 0 || o.chunkRecords > wire.MaxFrameRecords {
		o.chunkRecords = 1 << 14
	}
	if o.Clock == nil {
		o.Clock = simclock.Wall()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Trace == nil {
		t := obs.NewTracer(o.Clock, 256)
		t.SetEnabled(false)
		o.Trace = t
	}
	return o
}

// segmentInfo is one segment file's place in the log. Records in a
// segment carry the contiguous sequences [first, last]; last < first
// means the segment is empty. size is the file's length, tracked from
// Open's scan and every append so nothing has to stat it again.
type segmentInfo struct {
	path  string
	first uint64
	last  uint64
	size  int64
}

// segFile is what the log asks of its active segment. *os.File is the
// implementation; tests substitute one whose writes and fsyncs fail.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

func createSegment(path string) (segFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
}

// Log is a write-ahead log rooted at one directory. Append methods are
// safe for concurrent use with Commit and Replay; the live
// engine additionally serializes AppendBatch and Bounds under its
// admission lock, which is what makes a Bounds reading coherent with
// the batches flushed into an epoch.
type Log struct {
	opts    Options
	dir     string
	clock   simclock.Clock
	tracer  *obs.Tracer
	create  func(path string) (segFile, error) // createSegment outside tests; segments and checkpoint temp files
	syncDir func(path string) error            // the package's syncDir outside tests; openSegment's and writeFileDurable's

	mu         sync.Mutex
	segs       []segmentInfo // closed segments and, last, the active one
	f          segFile       // active segment (the last of segs); nil when none is open
	nextSeq    uint64
	failed     error      // set once by a failed fsync or an uncut torn write; refuses every later append
	ckpts      []ckptInfo // on-disk checkpoints, ascending by id
	nextCkptID uint64
	cpBound    uint64 // bound of the latest checkpoint: sequences at or below it are in it
	closed     bool

	// What Open read and verified, for the first Replay; Commit drops
	// them. bootTail is bootSeg's records while bootSeg is unchanged.
	bootCkpt *ckptHeader
	bootSeg  segmentInfo
	bootTail []unit
	// bootTorn is the torn tail Open cut off, if any, for the first
	// Replay's span.
	bootTorn *tornTail

	// The checkpoint cadence rule's inputs: what the latest checkpoint
	// holds, and the segment bytes a replay must read on top of it.
	ckptBytes   int64
	ckptRecords int64
	sinceCkpt   int64

	enc *wire.Encoder
	buf []byte // record encode buffer, reused across appends

	appended  *obs.Counter // wal_appended_total: records appended
	replayed  *obs.Counter // wal_replayed_total: records replayed
	truncated *obs.Counter // wal_truncated_total: log entries (sequences) truncated
	ckptsDone *obs.Counter // wal_checkpoints_total: checkpoints written
	ckptsSkip *obs.Counter // wal_checkpoint_skipped_total: commits the log had not earned a checkpoint for
	fsyncs    *obs.Counter // wal_fsync_total: fsync syscalls issued
	tornTails *obs.Counter // wal_torn_tail_total: torn tails recovered
	errors    *obs.Counter // wal_errors_total: appends refused or failed
	fsyncSec  *obs.Histogram
	backSegs  *obs.Gauge // wal_backlog_segments: live segment files
	backBytes *obs.Gauge // wal_backlog_bytes: bytes not yet folded into a checkpoint
}

// Open opens (creating if needed) the log rooted at opts.Dir: it
// loads the latest checkpoint's bound, indexes the segments, scans the
// final one to find the last durable sequence — truncating any torn
// tail left by a crash mid-append, so new appends never land after
// garbage. It starts no goroutine. A directory still holding the
// shard-NNNN/ subdirectories of the per-shard layout is refused: their
// records are acknowledged data this log would not replay. Open does
// not replay; call Replay before the first append to stream surviving
// records back.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:      opts,
		dir:       opts.Dir,
		clock:     opts.Clock,
		tracer:    opts.Trace,
		create:    createSegment,
		syncDir:   syncDir,
		nextSeq:   1,
		enc:       wire.NewEncoder(),
		appended:  opts.Metrics.Counter("wal_appended_total"),
		replayed:  opts.Metrics.Counter("wal_replayed_total"),
		truncated: opts.Metrics.Counter("wal_truncated_total"),
		ckptsDone: opts.Metrics.Counter("wal_checkpoints_total"),
		ckptsSkip: opts.Metrics.Counter("wal_checkpoint_skipped_total"),
		fsyncs:    opts.Metrics.Counter("wal_fsync_total"),
		tornTails: opts.Metrics.Counter("wal_torn_tail_total"),
		errors:    opts.Metrics.Counter("wal_errors_total"),
		fsyncSec:  opts.Metrics.Histogram("wal_fsync_seconds", []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5}),
		backSegs:  opts.Metrics.Gauge("wal_backlog_segments"),
		backBytes: opts.Metrics.Gauge("wal_backlog_bytes"),
	}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	return l, nil
}

// scanDir indexes checkpoints and segments, removes leftover
// checkpoint temp files, and recovers the log's tail.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var shardDirs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tmp"):
			// A crash mid-checkpoint leaves a temp file; the rename
			// never happened, so it holds nothing the log needs.
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return fmt.Errorf("wal: removing stale %s: %w", name, err)
			}
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 16, 64)
			if err != nil {
				return fmt.Errorf("wal: bad checkpoint name %q", name)
			}
			l.ckpts = append(l.ckpts, ckptInfo{id: id, path: filepath.Join(l.dir, name)})
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			shardDirs = append(shardDirs, name)
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64)
			if err != nil {
				return fmt.Errorf("wal: bad segment name %q in %s", name, l.dir)
			}
			fi, err := e.Info()
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.segs = append(l.segs, segmentInfo{path: filepath.Join(l.dir, name), first: first, size: fi.Size()})
		}
	}
	if len(shardDirs) > 0 {
		return fmt.Errorf("wal: %s holds per-shard log directories (%s) written by an older layout; this log is one segment stream and would not replay them — drain them with the release that wrote them, or move them aside",
			l.dir, strings.Join(shardDirs, ", "))
	}
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i].id < l.ckpts[j].id })
	if n := len(l.ckpts); n > 0 {
		l.nextCkptID = l.ckpts[n-1].id + 1
		if err := l.loadCheckpointHeader(l.ckpts[n-1].path); err != nil {
			return err
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	for i := range l.segs {
		if i+1 < len(l.segs) {
			// Closed segments hold the contiguous run up to the next
			// segment's first sequence; replay verifies record by record.
			if l.segs[i+1].first <= l.segs[i].first {
				return fmt.Errorf("wal: segments %s and %s overlap", l.segs[i].path, l.segs[i+1].path)
			}
			l.segs[i].last = l.segs[i+1].first - 1
			continue
		}
		if err := l.recoverTail(&l.segs[i]); err != nil {
			return err
		}
	}
	if n := len(l.segs); n > 0 {
		tail := l.segs[n-1]
		l.nextSeq = tail.last + 1
		if tail.size == 0 {
			// Nothing of the final segment survived. The next append
			// creates a segment of this very name, so the husk goes.
			if err := os.Remove(tail.path); err != nil {
				return fmt.Errorf("wal: removing empty segment: %w", err)
			}
			l.segs = l.segs[:n-1]
		}
	}
	if l.nextSeq <= l.cpBound {
		// Every segment was truncated past this point; sequences must
		// stay above the checkpoint bound or replay would filter fresh
		// appends out.
		l.nextSeq = l.cpBound + 1
	}
	for _, seg := range l.segs {
		if seg.last > l.cpBound {
			l.sinceCkpt += seg.size
		}
	}
	return nil
}

// recoverTail frames the log's final segment, truncates a torn tail —
// counted, and kept for the first Replay's span — and sets the
// segment's last durable sequence (first-1 when empty) and surviving
// size. Frames are CRC-checked, and decoded by the first Replay.
func (l *Log) recoverTail(seg *segmentInfo) error {
	units, torn, err := segmentUnits(*seg)
	if err != nil {
		return err
	}
	seg.last = seg.first - 1 + uint64(len(units))
	if torn != nil {
		if err := os.Truncate(seg.path, torn.Off); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
		}
		seg.size = torn.Off
		l.tornTails.Add(1)
		l.bootTorn = &tornTail{off: torn.Off, last: seg.last}
	}
	l.bootSeg, l.bootTail = *seg, units
	return nil
}

// Bounds returns the last sequence assigned, as a one-element vector
// (the live.WAL contract predates the single stream). The live engine
// reads it under its admission lock while cutting an epoch, so the
// result is exact: every record with seq <= Bounds()[0] is in the
// generation being published, and nothing beyond is.
func (l *Log) Bounds() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []uint64{l.nextSeq - 1}
}

// AppendBatch appends the non-empty parts of one admitted batch as one
// record (see appendBatch for the oversized case) with one write, and
// fsyncs it before returning. An error means nothing should be
// acknowledged: the caller rejects the batch and the client retries it
// whole.
func (l *Log) AppendBatch(parts [][]record.ViewRecord, parent obs.SpanID) error {
	return l.append(parts, nil, 0, parent)
}

// AppendFrames is AppendBatch for records view records that arrived as
// frames, a wire binary stream (wire.Decoder.Frames): logged as they are,
// not decoded or encoded, so the caller vouches that they decode.
func (l *Log) AppendFrames(frames []byte, records int64, parent obs.SpanID) error {
	return l.append(nil, frames, records, parent)
}

// append is both appends, under a wal.append span.
func (l *Log) append(parts [][]record.ViewRecord, frames []byte, records int64, parent obs.SpanID) error {
	sp := l.tracer.Start("wal.append", parent)
	l.mu.Lock()
	records, bytes, err := l.appendLocked(parts, frames, records, sp.ID())
	l.mu.Unlock()
	if err != nil {
		if err != ErrClosed {
			l.errors.Add(1)
		}
		sp.End(obs.KV("error", 1))
		return err
	}
	l.appended.Add(records)
	sp.End(obs.KV("records", records), obs.KV("bytes", bytes))
	return nil
}

// appendLocked copies frames, or else encodes parts, writes and syncs
// one batch, closes the segment once it is full, and returns the
// batch's record and byte counts. Sequences are consumed only by a
// write that landed whole. Caller holds mu.
func (l *Log) appendLocked(parts [][]record.ViewRecord, frames []byte, records int64, parent obs.SpanID) (int64, int64, error) {
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.failed != nil {
		return 0, 0, l.failed
	}
	var next uint64
	var err error
	if frames != nil {
		l.buf, next, err = appendFrames(l.buf[:0], l.nextSeq, MaxRecordBytes, frames)
	} else {
		esp := l.tracer.Start("wal.encode", parent)
		l.buf, next, records, err = appendBatch(l.buf[:0], l.enc, l.nextSeq, l.opts.chunkRecords, parts)
		esp.End(obs.KV("bytes", int64(len(l.buf))))
	}
	bytes := int64(len(l.buf))
	if err != nil || bytes == 0 {
		return 0, 0, err
	}
	if l.f == nil {
		if err := l.openSegment(); err != nil {
			return 0, 0, err
		}
	}
	active := &l.segs[len(l.segs)-1]
	wsp := l.tracer.Start("wal.write", parent)
	_, err = l.f.Write(l.buf)
	wsp.End(obs.KV("bytes", bytes))
	if err != nil {
		return 0, 0, l.cutTornWrite(active, err)
	}
	l.nextSeq = next
	active.last = next - 1
	active.size += bytes
	l.sinceCkpt += bytes
	if err := l.syncLocked(parent); err != nil {
		return 0, 0, err
	}
	if active.size >= l.opts.segmentBytes {
		err := l.f.Close()
		l.f = nil // the next append starts a fresh segment
		if err != nil {
			return 0, 0, fmt.Errorf("wal: closing segment: %w", err)
		}
	}
	return records, bytes, nil
}

// cutTornWrite handles a write that failed: whatever part of the
// record reached the O_APPEND file is cut back off, so the next append
// lands after the last good record and not after bytes recovery would
// truncate along with everything behind them. If the cut fails too the
// segment is sealed and the log stops taking appends; recovery cuts the
// tail when the directory is next opened. Caller holds mu.
func (l *Log) cutTornWrite(active *segmentInfo, werr error) error {
	if terr := l.f.Truncate(active.size); terr != nil {
		_ = l.f.Close() // sealed; the errors worth reporting are the two below
		l.f = nil
		l.failed = fmt.Errorf("wal: append failed (%w) and its torn tail could not be cut (%w); the log refuses appends until reopened", werr, terr)
		return l.failed
	}
	return fmt.Errorf("wal: append: %w", werr)
}

// openSegment creates and opens a fresh active segment named after
// the next sequence the log will assign. The directory is fsynced
// before the segment is used: the append that asked for it is
// acknowledged on the strength of the file's fsync, which says nothing
// of the file's name. If that fails the segment is withdrawn, and the
// next append starts over. Not a wal_fsync_total fsync: that counter is
// one per acknowledged batch.
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%016x.wal", l.nextSeq))
	f, err := l.create(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(l.dir); err != nil {
		_ = f.Close()       // the sync error is the one worth reporting
		_ = os.Remove(path) // left behind, it fails the next create, and Open clears it
		return err
	}
	l.f = f
	l.segs = append(l.segs, segmentInfo{path: path, first: l.nextSeq, last: l.nextSeq - 1})
	return nil
}

// syncLocked fsyncs the active segment under a wal.fsync span. A
// failure is final for this Log: the kernel may have dropped the dirty
// pages and marked them clean, so a retried fsync can succeed without
// the data being on disk. Caller holds mu.
func (l *Log) syncLocked(parent obs.SpanID) error {
	sp := l.tracer.Start("wal.fsync", parent)
	start := l.clock.Now()
	if err := l.f.Sync(); err != nil {
		sp.End(obs.KV("error", 1))
		l.failed = fmt.Errorf("wal: fsync: %w; the log refuses appends until reopened", err)
		return l.failed
	}
	l.fsyncs.Add(1)
	l.fsyncSec.Observe(l.clock.Now().Sub(start).Seconds())
	sp.End(obs.KV("files", 1))
	return nil
}

// Backlog reports the log's replay debt: how many segment files exist
// (active and closed) and how many bytes they hold — everything a
// boot-time Replay would have to stream before the listener opens. Both
// come from the sizes tracked at Open and on every append: the sampler
// calls this on each tick, and must not stat the directory under the
// lock appends wait on.
func (l *Log) Backlog() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		bytes += seg.size
	}
	return len(l.segs), bytes
}

// Checkpoints returns how many checkpoints this Log has written.
func (l *Log) Checkpoints() int64 { return l.ckptsDone.Load() }

// PublishGauges refreshes the log's backlog gauges from Backlog. The
// obs sampler calls it on every sampling pass.
func (l *Log) PublishGauges() {
	segs, bytes := l.Backlog()
	l.backSegs.Set(int64(segs))
	l.backBytes.Set(bytes)
}

// Close closes the active segment; every append was fsynced before it
// returned, so there is nothing left to sync. The log directory remains
// valid for a later Open. Close is idempotent; appends after it return
// ErrClosed. A log that had stopped on a write or fsync failure reports
// that failure.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	first := l.failed
	if l.f != nil {
		if err := l.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("wal: closing segment: %w", err)
		}
		l.f = nil
	}
	return first
}
