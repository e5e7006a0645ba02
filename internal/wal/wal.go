// Package wal is the serving plane's durability subsystem: a per-shard
// append-only write-ahead log in front of internal/live's in-memory
// shard queues, so a crash between admission and the next epoch cannot
// lose a batch the daemon acknowledged.
//
// Each admitted sub-batch is appended to its shard's active segment as
// a length-prefixed, CRC32C-checksummed record carrying a per-shard
// monotonic sequence number and the batch itself as internal/wire
// binary frames — the same encoding the ingest wire path speaks, and
// the same monotonic-sequence framing discipline the obs event
// pipeline uses to make a truncated prefix detectable. Appends are
// made durable by a configurable fsync policy: PolicyBatch syncs
// before the append returns (an acknowledged batch survives kill -9
// and power loss), PolicyInterval group-commits on a background
// cadence (ack precedes durability by at most one interval), and
// PolicyOff never syncs (the OS page cache still survives a process
// kill, but not a kernel crash).
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
// a crash mid-append) stops a shard's replay cleanly at the last good
// sequence, logged and counted, never with a panic. DESIGN.md §11
// specifies the formats and the crash matrix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sync"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: log closed")

// Policy selects when appended records are fsynced.
type Policy int

const (
	// PolicyBatch syncs every shard file a batch touched before
	// AppendBatch returns: an acknowledged batch is durable against
	// kill -9 and power loss.
	PolicyBatch Policy = iota
	// PolicyInterval group-commits: appends return after write(), and
	// a background loop syncs dirty shard files every SyncEvery. The
	// acknowledgement-to-durability window is at most one interval.
	PolicyInterval
	// PolicyOff never syncs. Appends still write() synchronously, so
	// the data survives a process kill in the OS page cache; a kernel
	// crash or power loss inside the cache window loses it.
	PolicyOff
)

// ParsePolicy parses the -wal-fsync flag vocabulary.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch":
		return PolicyBatch, nil
	case "interval":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval, or off)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyBatch:
		return "batch"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	}
	return "unknown"
}

// Options parameterizes a Log. The zero value of every field gets a
// sensible default: 8 shards, PolicyBatch, 25 ms group-commit
// cadence, 16 MiB segments, the wall clock, a fresh registry, and a
// disabled tracer.
type Options struct {
	Dir          string         // log directory, created if absent
	Shards       int            // shard count for new appends
	Policy       Policy         // fsync policy
	SyncEvery    time.Duration  // group-commit cadence for PolicyInterval
	SegmentBytes int64          // active-segment rotation threshold
	ChunkRecords int            // records per appended record (frame)
	Clock        simclock.Clock // time source for fsync latency
	Metrics      *obs.Registry  // counter/histogram destination
	Trace        *obs.Tracer    // span/event destination (nil = disabled)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.ChunkRecords <= 0 || o.ChunkRecords > wire.MaxFrameRecords {
		o.ChunkRecords = 1 << 14
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

// segmentInfo is one segment file's place in a shard's log. Records in
// a segment carry the contiguous sequences [first, last]; last < first
// means the segment is empty. size is the file's length, tracked from
// Open's scan and every append so nothing has to stat it again.
type segmentInfo struct {
	path  string
	first uint64
	last  uint64
	size  int64
}

// shardLog is one shard's append state: its closed and active
// segments, the open handle on the active one, and the next sequence
// to assign. All fields are guarded by the owning Log's mu.
type shardLog struct {
	idx     int
	dir     string
	segs    []segmentInfo
	f       *os.File // active segment (the last of segs); nil when no segment is open
	dirty   bool     // written since the last fsync
	nextSeq uint64
}

// staleShard is a shard directory left over from a previous run with a
// higher shard count. Replay still reads it; the next checkpoint
// removes it — its records are in the generation that one holds.
type staleShard struct {
	idx  int
	dir  string
	segs []segmentInfo
}

// Log is a per-shard write-ahead log rooted at one directory. Append
// methods are safe for concurrent use with Sync, Commit, and Replay;
// the live engine additionally serializes AppendBatch and Bounds under
// its admission lock, which is what makes a Bounds reading coherent
// with the batches flushed into an epoch.
type Log struct {
	opts   Options
	dir    string
	clock  simclock.Clock
	tracer *obs.Tracer

	mu         sync.Mutex
	shards     []*shardLog
	stale      []staleShard
	ckpts      []ckptInfo // on-disk checkpoints, ascending by id
	nextCkptID uint64
	cpBounds   []uint64 // per-shard bounds of the latest checkpoint
	closed     bool

	// The checkpoint cadence rule's inputs: what the latest checkpoint
	// holds, and the segment bytes a replay must read on top of it.
	ckptBytes   int64
	ckptRecords int64
	sinceCkpt   int64

	quit chan struct{} // stops the PolicyInterval sync loop
	done chan struct{}

	enc *wire.Encoder
	buf []byte //vmp:scratch record encode buffer, reused across appends

	appended  *obs.Counter // wal_appended_total: records appended
	replayed  *obs.Counter // wal_replayed_total: records replayed
	truncated *obs.Counter // wal_truncated_total: log entries (sequences) truncated
	ckptsDone *obs.Counter // wal_checkpoints_total: checkpoints written
	ckptsSkip *obs.Counter // wal_checkpoint_skipped_total: commits the log had not earned a checkpoint for
	fsyncs    *obs.Counter // wal_fsync_total: fsync syscalls issued
	tornTails *obs.Counter // wal_torn_tail_total: torn tails recovered
	errors    *obs.Counter // wal_errors_total: background sync failures
	fsyncSec  *obs.Histogram
	backSegs  *obs.Gauge // wal_backlog_segments: live segment files
	backBytes *obs.Gauge // wal_backlog_bytes: bytes not yet folded into a checkpoint
}

// Open opens (creating if needed) the log rooted at opts.Dir: it
// loads the latest checkpoint's bounds, indexes every shard's
// segments, scans each shard's final segment to find its last durable
// sequence — truncating any torn tail left by a crash mid-append, so
// new appends never land after garbage — and starts the group-commit
// loop when the policy asks for one. Open does not replay; call
// Replay before the first append to stream surviving records back.
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
	if opts.Policy == PolicyInterval {
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scanDir indexes checkpoints and shard segments, removes leftover
// checkpoint temp files, and recovers each shard's tail.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var shardDirs []int
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
			idx, err := strconv.Atoi(strings.TrimPrefix(name, "shard-"))
			if err != nil || idx < 0 {
				return fmt.Errorf("wal: bad shard directory %q", name)
			}
			shardDirs = append(shardDirs, idx)
		}
	}
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i].id < l.ckpts[j].id })
	if n := len(l.ckpts); n > 0 {
		l.nextCkptID = l.ckpts[n-1].id + 1
		if err := l.loadCheckpointHeader(l.ckpts[n-1].path); err != nil {
			return err
		}
	}

	l.shards = make([]*shardLog, l.opts.Shards)
	for i := range l.shards {
		l.shards[i] = &shardLog{idx: i, dir: l.shardDir(i), nextSeq: 1}
	}
	sort.Ints(shardDirs)
	for _, idx := range shardDirs {
		dir := l.shardDir(idx)
		segs, err := l.scanShard(idx, dir)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			if seg.last > l.bound(idx) {
				l.sinceCkpt += seg.size
			}
		}
		if idx < len(l.shards) {
			sh := l.shards[idx]
			sh.segs = segs
			if n := len(segs); n > 0 {
				sh.nextSeq = segs[n-1].last + 1
			}
			if b := l.bound(idx); sh.nextSeq <= b {
				// Every segment was truncated past this point; sequences
				// must stay above the checkpoint bound or replay would
				// filter fresh appends out.
				sh.nextSeq = b + 1
			}
		} else {
			l.stale = append(l.stale, staleShard{idx: idx, dir: dir, segs: segs})
		}
	}
	return nil
}

// bound returns the latest checkpoint's bound for shard idx (0 when
// the checkpoint predates the shard).
func (l *Log) bound(idx int) uint64 {
	if idx < len(l.cpBounds) {
		return l.cpBounds[idx]
	}
	return 0
}

func (l *Log) shardDir(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("shard-%04d", idx))
}

// scanShard indexes one shard directory's segments and recovers the
// final segment's tail: its records are scanned (CRC-checked, frames
// skipped), a torn tail is physically truncated away — counted and
// logged as a wal_torn_tail event — and the segment's last sequence is
// established from what survives.
func (l *Log) scanShard(idx int, dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q in %s", name, dir)
		}
		fi, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), first: first, size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := range segs {
		if i+1 < len(segs) {
			// Closed segments hold the contiguous run up to the next
			// segment's first sequence; replay verifies record by record.
			if segs[i+1].first <= segs[i].first {
				return nil, fmt.Errorf("wal: shard %d: segments %s and %s overlap", idx, segs[i].path, segs[i+1].path)
			}
			segs[i].last = segs[i+1].first - 1
			continue
		}
		if err := l.recoverTail(idx, &segs[i]); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// recoverTail scans the final segment of a shard, truncates a torn
// tail, and sets the segment's last durable sequence (first-1 when
// empty) and surviving size.
func (l *Log) recoverTail(idx int, seg *segmentInfo) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	seg.size = int64(len(data))
	last := seg.first - 1
	torn, err := DecodeSegment(data, nil, func(seq uint64, _ []record.ViewRecord) error {
		if seq != last+1 {
			return fmt.Errorf("wal: shard %d %s: sequence %d after %d", idx, seg.path, seq, last)
		}
		last = seq
		return nil
	})
	if err != nil {
		return err
	}
	seg.last = last
	if torn != nil {
		if err := os.Truncate(seg.path, torn.Off); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
		}
		seg.size = torn.Off
		l.tornTails.Add(1)
		l.tracer.Emit("wal_torn_tail",
			obs.KV("shard", int64(idx)), obs.KV("offset", torn.Off), obs.KV("last_seq", int64(last)))
	}
	return nil
}

// Bounds returns the last sequence assigned to each shard. The live
// engine reads it under its admission lock while cutting an epoch, so
// the result is exact: every record with seq <= Bounds()[i] is in the
// generation being published, and nothing beyond is.
func (l *Log) Bounds() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	bounds := make([]uint64, len(l.shards))
	for i, sh := range l.shards {
		bounds[i] = sh.nextSeq - 1
	}
	return bounds
}

// AppendBatch durably appends each non-empty parts[i] to shard
// i mod Shards. Parts larger than ChunkRecords are split across
// records; under PolicyBatch every touched file is fsynced before the
// call returns. An error means nothing should be acknowledged: the
// caller rejects the batch and the client retries it whole.
//
//vmp:hotpath
func (l *Log) AppendBatch(parts [][]record.ViewRecord, parent obs.SpanID) error {
	sp := l.tracer.Start("wal.append", parent)
	total := int64(0)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		sp.End(obs.KV("closed", 1))
		return ErrClosed
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := l.appendLocked(l.shards[i%len(l.shards)], part); err != nil {
			l.mu.Unlock()
			sp.End(obs.KV("error", 1))
			return err
		}
		total += int64(len(part))
	}
	if l.opts.Policy == PolicyBatch {
		if err := l.syncLocked(sp.ID()); err != nil {
			l.mu.Unlock()
			sp.End(obs.KV("error", 1))
			return err
		}
	}
	l.mu.Unlock()
	l.appended.Add(total)
	sp.End(obs.KV("records", total))
	return nil
}

// appendLocked writes part to sh as one or more records. Caller holds
// mu.
//
//vmp:hotpath
func (l *Log) appendLocked(sh *shardLog, part []record.ViewRecord) error {
	for len(part) > 0 {
		n := len(part)
		if n > l.opts.ChunkRecords {
			n = l.opts.ChunkRecords
		}
		if sh.f == nil {
			if err := l.openSegment(sh); err != nil { //vmp:alloc segment create/rotate is amortized over SegmentBytes of appends
				return err
			}
		}
		seq := sh.nextSeq
		buf, err := appendRecord(l.buf[:0], l.enc, seq, part[:n])
		l.buf = buf
		if err != nil {
			return err
		}
		if _, err := sh.f.Write(buf); err != nil {
			// A partial write leaves a torn tail; recovery on the next
			// open truncates it, so the sequence is not consumed.
			return fmt.Errorf("wal: shard %d append: %w", sh.idx, err)
		}
		active := &sh.segs[len(sh.segs)-1]
		sh.nextSeq = seq + 1
		sh.dirty = true
		active.last = seq
		active.size += int64(len(buf))
		l.sinceCkpt += int64(len(buf))
		part = part[n:]
		if active.size >= l.opts.SegmentBytes {
			if err := l.rotateLocked(sh); err != nil { //vmp:alloc segment create/rotate is amortized over SegmentBytes of appends
				return err
			}
		}
	}
	return nil
}

// openSegment creates and opens a fresh active segment named after
// the next sequence the shard will assign.
func (l *Log) openSegment(sh *shardLog) error {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(sh.dir, fmt.Sprintf("seg-%016x.wal", sh.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sh.f = f
	sh.segs = append(sh.segs, segmentInfo{path: path, first: sh.nextSeq, last: sh.nextSeq - 1})
	return nil
}

// rotateLocked closes the active segment so the next append starts a
// fresh one; a final sync flushes whatever the policy had not yet.
func (l *Log) rotateLocked(sh *shardLog) error {
	if sh.f == nil {
		return nil
	}
	if sh.dirty && l.opts.Policy != PolicyOff {
		if err := l.syncShard(sh); err != nil {
			return err
		}
	}
	err := sh.f.Close()
	sh.f = nil
	if err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	return nil
}

// syncShard fsyncs one shard's active segment and clears its dirty
// flag. Caller holds mu.
func (l *Log) syncShard(sh *shardLog) error {
	start := l.clock.Now()
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync shard %d: %w", sh.idx, err)
	}
	sh.dirty = false
	l.fsyncs.Add(1)
	l.fsyncSec.Observe(l.clock.Now().Sub(start).Seconds())
	return nil
}

// syncLocked fsyncs every dirty shard file under one wal.fsync span.
// Caller holds mu.
//
//vmp:hotpath
func (l *Log) syncLocked(parent obs.SpanID) error {
	sp := l.tracer.Start("wal.fsync", parent)
	n := int64(0)
	for _, sh := range l.shards {
		if sh.f == nil || !sh.dirty {
			continue
		}
		if err := l.syncShard(sh); err != nil {
			sp.End(obs.KV("error", 1))
			return err
		}
		n++
	}
	sp.End(obs.KV("files", n))
	return nil
}

// Backlog reports the log's replay debt: how many segment files exist
// (active and closed, across live and stale shards) and how many bytes
// they hold — everything a boot-time Replay would have to stream
// before the listener opens. Both come from the sizes tracked at Open
// and on every append: the sampler calls this on each tick, and must
// not stat the directory under the lock appends wait on.
func (l *Log) Backlog() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	count := func(segs []segmentInfo) {
		segments += len(segs)
		for _, seg := range segs {
			bytes += seg.size
		}
	}
	for _, sh := range l.shards {
		count(sh.segs)
	}
	for _, st := range l.stale {
		count(st.segs)
	}
	return segments, bytes
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

// Sync forces an fsync of every dirty shard file — the group-commit
// step, also usable directly by tests and shutdown paths.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(0)
}

// syncLoop is the PolicyInterval group-commit daemon: every SyncEvery
// it fsyncs whatever the appenders dirtied. The ticker is operational
// heartbeat, not study time, so the real ticker is correct here —
// determinism-sensitive tests call Sync directly instead.
func (l *Log) syncLoop() {
	defer close(l.done)
	tick := time.NewTicker(l.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-tick.C:
			if err := l.Sync(); err != nil {
				// The data is still in the OS cache and the next tick
				// retries; count it so operators see a sick disk.
				l.errors.Add(1)
				l.tracer.Emit("wal_sync_error")
			}
		}
	}
}

// Close stops the group-commit loop, syncs everything dirty, and
// closes the shard files. The log directory remains valid for a later
// Open. Close is idempotent; appends after it return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.quit != nil {
		close(l.quit)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, sh := range l.shards {
		if sh.f == nil {
			continue
		}
		if sh.dirty && l.opts.Policy != PolicyOff {
			if err := l.syncShard(sh); err != nil && first == nil {
				first = err
			}
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("wal: closing shard %d: %w", sh.idx, err)
		}
		sh.f = nil
	}
	return first
}
