package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// genRecords builds a deterministic record set with enough field
// variety to exercise the string table, CDN lists, and bitsets.
func genRecords(n int) []record.ViewRecord {
	base := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	cdnSets := [][]string{{"cdn-a"}, {"cdn-b"}, {"cdn-a", "cdn-b"}, nil}
	recs := make([]record.ViewRecord, n)
	for i := range recs {
		recs[i] = record.ViewRecord{
			Timestamp: base.Add(time.Duration(i%97) * 37 * time.Second),
			Publisher: fmt.Sprintf("pub-%02d", i%7),
			VideoID:   fmt.Sprintf("vid-%04d", i%101),
			URL:       fmt.Sprintf("http://v.example/%d/master.m3u8", i%11),
			Device:    []string{"Roku", "iPhone", "HTML5", "XBox"}[i%4],
			CDNs:      cdnSets[i%len(cdnSets)],
			Geo:       []string{"US-CA", "US-NY", "DE-BE"}[i%3],
			Live:      i%5 == 0,
			ViewSec:   float64(30 + i%900),
			Weight:    1 + float64(i%5),
		}
	}
	return recs
}

// partition splits records round-robin into the per-shard shape
// AppendBatch takes. Any deterministic partition works: the log keeps
// the parts of a batch together and replay hands them back as one.
func partition(recs []record.ViewRecord, shards int) [][]record.ViewRecord {
	parts := make([][]record.ViewRecord, shards)
	for i := range recs {
		parts[i%shards] = append(parts[i%shards], recs[i])
	}
	return parts
}

func openLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	if opts.Clock == nil {
		opts.Clock = simclock.NewManual(simclock.StudyStart)
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

// replayAll collects every replayed record (copied out of the
// decoder's reuse window).
func replayAll(t *testing.T, l *Log) ([]record.ViewRecord, ReplayStats) {
	t.Helper()
	var out []record.ViewRecord
	stats, err := l.Replay(func(recs []record.ViewRecord) error {
		out = append(out, recs...)
		return nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// canonBytes renders a record multiset in canonical JSONL form — the
// equality the whole pipeline uses for "same data".
func canonBytes(t *testing.T, recs []record.ViewRecord) []byte {
	t.Helper()
	sorted := append([]record.ViewRecord(nil), recs...)
	telemetry.CanonicalSort(sorted)
	var buf bytes.Buffer
	if err := telemetry.EncodeJSONL(&buf, sorted); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	recs := genRecords(1000)
	for lo := 0; lo < len(recs); lo += 100 {
		if err := l.AppendBatch(partition(recs[lo:lo+100], 4), 0); err != nil {
			t.Fatal(err)
		}
	}
	got, stats := replayAll(t, l)
	if stats.SegmentRecords != 1000 || stats.CheckpointRecords != 0 {
		t.Fatalf("stats = %+v, want 1000 segment records", stats)
	}
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatalf("replay is not the appended multiset: %d records back, %d in", len(got), len(recs))
	}
	snap := reg.Snapshot()
	if snap.Counters["wal_appended_total"] != 1000 || snap.Counters["wal_replayed_total"] != 1000 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Counters["wal_fsync_total"] == 0 {
		t.Fatal("appended without fsyncing")
	}
}

func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	recs := genRecords(600)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	// Fold half into a checkpoint so both sources are exercised.
	bounds := l.Bounds()
	if err := l.Commit(1, recs, bounds, 0); err != nil {
		t.Fatal(err)
	}
	more := genRecords(200)
	if err := l.AppendBatch(partition(more, 4), 0); err != nil {
		t.Fatal(err)
	}
	first, _ := replayAll(t, l)
	second, _ := replayAll(t, l)
	b1, b2 := canonBytes(t, first), canonBytes(t, second)
	if !bytes.Equal(b1, b2) {
		t.Fatal("double replay is not byte-identical")
	}
	if want := canonBytes(t, append(append([]record.ViewRecord(nil), recs...), more...)); !bytes.Equal(b1, want) {
		t.Fatal("replay does not reconstruct checkpoint + tail records")
	}
}

func TestReopenContinuesSequences(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	recs := genRecords(400)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	before := l.Bounds()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	if got := l2.Bounds(); !slices.Equal(got, before) {
		t.Fatalf("reopen bounds = %v, want %v", got, before)
	}
	more := genRecords(100)
	if err := l2.AppendBatch(partition(more, 4), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, l2)
	if len(got) != 500 {
		t.Fatalf("replayed %d records after reopen, want 500", len(got))
	}
}

func TestCommitCheckpointsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	recs := genRecords(800)
	for lo := 0; lo < len(recs); lo += 200 {
		if err := l.AppendBatch(partition(recs[lo:lo+200], 4), 0); err != nil {
			t.Fatal(err)
		}
	}
	bounds := l.Bounds()
	if err := l.Commit(1, recs, bounds, 0); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); len(segs) != 0 {
		t.Fatalf("segments survive a covering commit: %v", segs)
	}
	if ckpts := checkpointFiles(t, dir); len(ckpts) != 1 {
		t.Fatalf("checkpoints = %v, want exactly one", ckpts)
	}
	// One AppendBatch = one log entry whatever its parts; the
	// truncation counter counts entries (sequences), not view records.
	if n := reg.Snapshot().Counters["wal_truncated_total"]; n != 4 {
		t.Fatalf("wal_truncated_total = %d, want 4 entries", n)
	}

	// An idle commit (same bounds) must not rewrite the checkpoint.
	ckpt1 := checkpointFiles(t, dir)
	if err := l.Commit(2, recs, bounds, 0); err != nil {
		t.Fatal(err)
	}
	ckpt2 := checkpointFiles(t, dir)
	if len(ckpt2) != 1 || ckpt1[0] != ckpt2[0] {
		t.Fatalf("idle commit rewrote the checkpoint: %v -> %v", ckpt1, ckpt2)
	}

	// Replay reconstructs the generation from the checkpoint alone.
	got, stats := replayAll(t, l)
	if stats.CheckpointRecords != 800 || stats.SegmentRecords != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("checkpoint replay does not match the committed generation")
	}
	if stats.Epoch != 1 {
		t.Fatalf("replayed checkpoint epoch = %d, want 1", stats.Epoch)
	}

	// Appends after truncation must take sequences above the committed
	// bounds — otherwise replay would filter them out as covered.
	more := genRecords(100)
	if err := l.AppendBatch(partition(more, 4), 0); err != nil {
		t.Fatal(err)
	}
	got2, _ := replayAll(t, l)
	if len(got2) != 900 {
		t.Fatalf("post-commit append replay = %d records, want 900", len(got2))
	}
}

func TestCommitBoundsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	recs := genRecords(300)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1, recs, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	before := l.Bounds()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// After truncation no segment files exist: the reopened log must
	// take its sequence floor from the checkpoint, or fresh appends
	// would be filtered as checkpoint-covered on the next replay.
	l2 := openLog(t, dir, Options{})
	if got := l2.Bounds(); !slices.Equal(got, before) {
		t.Fatalf("reopen bounds = %v, want %v", got, before)
	}
	more := genRecords(150)
	if err := l2.AppendBatch(partition(more, 4), 0); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, l2)
	if stats.SkippedRecords != 0 {
		t.Fatalf("fresh appends were filtered as covered: %+v", stats)
	}
	if len(got) != 450 {
		t.Fatalf("replayed %d records, want 450", len(got))
	}
}

// TestSegmentRotation: the active segment is closed by the append that
// takes it to segmentBytes, never before, and the next append starts a
// file named after its own first sequence — so the names alone say
// which sequences each file holds, which is what Open and Commit go by.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	const threshold = 8 << 10
	l := openLog(t, dir, Options{segmentBytes: threshold})
	recs := genRecords(4000)
	grew := int64(0) // bytes in the active segment
	for lo := 0; lo < len(recs); lo += 100 {
		before := len(segmentFiles(t, dir))
		if err := l.AppendBatch(partition(recs[lo:lo+100], 2), 0); err != nil {
			t.Fatal(err)
		}
		files := segmentFiles(t, dir)
		if grew == 0 {
			if len(files) != before+1 {
				t.Fatalf("append %d after a rotation: %d segment files, want a new one beside %d", lo/100, len(files), before)
			}
		} else if len(files) != before {
			t.Fatalf("append %d: a segment of %d bytes was rotated away below the %d threshold", lo/100, grew, threshold)
		}
		if grew = fileSize(t, files[len(files)-1]); grew >= threshold {
			grew = 0 // this append closed it
		}
	}
	files := segmentFiles(t, dir)
	if len(files) < 4 {
		t.Fatalf("%d segment files under an 8 KiB rotation threshold, expected several", len(files))
	}
	for _, p := range files[:len(files)-1] {
		if fileSize(t, p) < threshold {
			t.Fatalf("closed segment %s holds %d bytes, below the threshold", p, fileSize(t, p))
		}
	}
	// Names carry first sequences: 40 appends, one sequence each.
	next := uint64(1)
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("seg-%016x.wal", next); filepath.Base(p) != want {
			t.Fatalf("segment %s, want %s", filepath.Base(p), want)
		}
		if _, err := scanSegment(data, func(seq uint64, _ int64, _ []byte) error {
			if seq != next {
				return fmt.Errorf("%s: sequence %d where %d expected", p, seq, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if next != 41 || l.Bounds()[0] != 40 {
		t.Fatalf("segments end at sequence %d with bounds %v, want 40", next-1, l.Bounds())
	}
	got, _ := replayAll(t, l)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("multi-segment replay is not the appended multiset")
	}
}

// TestAppendBatchOneRecordOneWriteOneFsync is the single stream's cost
// contract: however many shard parts a batch has, it consumes one
// sequence, costs one write to one file and adds exactly one to
// wal_fsync_total.
func TestAppendBatchOneRecordOneWriteOneFsync(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("parts=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			l := openLog(t, dir, Options{Metrics: reg})
			calls := countFileCalls(l)
			// Eight shard slots, k of them non-empty.
			parts := make([][]record.ViewRecord, 8)
			copy(parts, partition(genRecords(40*k), k))
			for round := 0; round < 3; round++ {
				seq := l.Bounds()[0]
				fsyncs := reg.Snapshot().Counters["wal_fsync_total"]
				writes, syncs := calls.writes, calls.syncs
				size := segmentBytes(t, dir)
				if err := l.AppendBatch(parts, 0); err != nil {
					t.Fatal(err)
				}
				if got := l.Bounds()[0]; got != seq+1 {
					t.Fatalf("round %d: sequence went %d -> %d, want one consumed", round, seq, got)
				}
				if got := reg.Snapshot().Counters["wal_fsync_total"] - fsyncs; got != 1 || calls.syncs-syncs != 1 {
					t.Fatalf("round %d: wal_fsync_total +%d, %d Sync calls, want 1 and 1", round, got, calls.syncs-syncs)
				}
				if calls.writes-writes != 1 {
					t.Fatalf("round %d: %d writes, want 1", round, calls.writes-writes)
				}
				files := segmentFiles(t, dir)
				if len(files) != 1 || segmentBytes(t, dir) <= size {
					t.Fatalf("round %d: files %v holding %d bytes (was %d), want the one file grown", round, files, segmentBytes(t, dir), size)
				}
			}
		})
	}
}

// TestReplayDeliversBatchesWhole: one callback per acknowledged batch,
// carrying the records of all its parts, in append order.
func TestReplayDeliversBatchesWhole(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	recs := genRecords(700)
	batches := [][]record.ViewRecord{recs[:100], recs[100:350], recs[350:351], recs[351:]}
	for i, b := range batches {
		if err := l.AppendBatch(partition(b, 1+3*i), 0); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]record.ViewRecord
	if _, err := l.Replay(func(recs []record.ViewRecord) error {
		got = append(got, append([]record.ViewRecord(nil), recs...))
		return nil
	}, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("replay made %d callbacks for %d batches", len(got), len(batches))
	}
	for i := range batches {
		if !bytes.Equal(canonBytes(t, got[i]), canonBytes(t, batches[i])) {
			t.Fatalf("callback %d carries %d records, not batch %d's %d", i, len(got[i]), i, len(batches[i]))
		}
	}
}

// TestOversizedBatchSpansRecords: a batch past chunkRecords is carried
// in several records — still one write and one fsync — and replays
// complete.
func TestOversizedBatchSpansRecords(t *testing.T) {
	reg := obs.NewRegistry()
	l := openLog(t, t.TempDir(), Options{chunkRecords: 50, Metrics: reg})
	calls := countFileCalls(l)
	recs := genRecords(330)
	if err := l.AppendBatch(partition(recs, 3), 0); err != nil { // parts of 110: frames of 50, 50, 10
		t.Fatal(err)
	}
	if got := l.Bounds()[0]; got < 330/50 {
		t.Fatalf("330 records under a 50-record chunk took %d sequences", got)
	}
	if calls.writes != 1 || calls.syncs != 1 {
		t.Fatalf("%d writes, %d fsyncs for one batch", calls.writes, calls.syncs)
	}
	perCall := 0
	var got []record.ViewRecord
	if _, err := l.Replay(func(recs []record.ViewRecord) error {
		perCall = max(perCall, len(recs))
		got = append(got, recs...)
		return nil
	}, 0); err != nil {
		t.Fatal(err)
	}
	if perCall > 50 {
		t.Fatalf("a record of %d view records under chunkRecords 50", perCall)
	}
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("replay of an oversized batch is not the batch")
	}
}

// TestOpenRefusesPerShardLayout: a directory written by the per-shard
// log holds acknowledged records this log would never replay. Open must
// say so, naming what it found, rather than start an empty stream
// beside them.
func TestOpenRefusesPerShardLayout(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"shard-0000", "shard-0005"} {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0005", "seg-0000000000000001.wal"), []byte("acked"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("Open accepted a directory of per-shard logs")
	}
	for _, name := range []string{"shard-0000", "shard-0005"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not name %s: %v", name, err)
		}
	}
	if files := segmentFiles(t, dir); len(files) != 0 {
		t.Fatalf("the refused Open left %v behind", files)
	}

	// The same for a checkpoint whose bounds are per shard: nothing in
	// it says where this stream's sequences stand.
	dir = t.TempDir()
	recs := genRecords(10)
	img, err := encodeCheckpoint(1, len(recs), func(lo, hi int) []record.ViewRecord { return recs[lo:hi] }, []uint64{3, 1, 4, 1}, ckptBytesPerRecord)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000000.ckpt"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "4 shard bounds") {
		t.Fatalf("Open of a per-shard checkpoint = %v, want a refusal naming its 4 bounds", err)
	}
}

// TestCommitWantsOneBound: the bounds vector is the stream's single
// sequence; anything else is a caller from the per-shard days.
func TestCommitWantsOneBound(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	if got := l.Bounds(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty log bounds = %v, want [0]", got)
	}
	if err := l.Commit(1, nil, make([]uint64, 4), 0); err == nil {
		t.Fatal("Commit accepted four bounds")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(partition(genRecords(8), 4), 0); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestAppendStagesTraced pins the append's stage vocabulary: wal.write
// and wal.fsync are children of wal.append, which says how many records
// and bytes the batch was — so a trace can tell whether a slow ack was
// spent encoding, in write(2) or in fsync. AppendBatch has a wal.encode
// child too; AppendFrames encodes nothing and has none.
func TestAppendStagesTraced(t *testing.T) {
	recs := genRecords(120)
	frames, err := wire.NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		append func(*Log) error
		encode bool
	}{
		{"batch", func(l *Log) error { return l.AppendBatch(partition(recs, 4), 0) }, true},
		{"frames", func(l *Log) error { return l.AppendFrames(frames, 120, 0) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 64)
			l := openLog(t, dir, Options{Trace: tr})
			if err := c.append(l); err != nil {
				t.Fatal(err)
			}
			size := segmentBytes(t, dir)
			if !c.encode && size != int64(recordHeaderBytes+1+len(frames)) {
				t.Fatalf("%d segment bytes for a %d-byte frame stream under sequence 1", size, len(frames))
			}
			var parent uint64
			children := map[string]int64{}
			snap := tr.Snapshot()
			for _, sp := range snap.Spans {
				if sp.Name == "wal.append" {
					parent = sp.ID
					if sp.Attrs["records"] != 120 || sp.Attrs["bytes"] != size {
						t.Fatalf("wal.append attrs %v, want 120 records and %d bytes", sp.Attrs, size)
					}
				}
			}
			for _, sp := range snap.Spans {
				if sp.Name != "wal.append" {
					if sp.Parent != parent {
						t.Fatalf("%s is not a child of wal.append: %+v", sp.Name, sp)
					}
					children[sp.Name] = sp.Attrs["bytes"]
				}
			}
			if _, ok := children["wal.fsync"]; !ok || children["wal.write"] != size {
				t.Fatalf("children of wal.append: %v, want wal.write with %d bytes, and wal.fsync", children, size)
			}
			want := 2 // wal.write, wal.fsync
			if c.encode {
				want++
			}
			if encoded, ok := children["wal.encode"]; ok != c.encode || (ok && encoded != size) || len(children) != want {
				t.Fatalf("children of wal.append: %v, want %d; wal.encode (with %d bytes) among them: %v", children, want, size, c.encode)
			}
		})
	}
}

// TestAppendBatchDoesNotAllocate: with tracing off, the steady-state
// append — encode into the reused buffer, one write, one fsync —
// allocates nothing.
func TestAppendBatchDoesNotAllocate(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	parts := partition(genRecords(400), 8)
	if err := l.AppendBatch(parts, 0); err != nil { // sizes the buffers, creates the segment
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := l.AppendBatch(parts, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendBatch allocates %.1f times per batch", allocs)
	}
}

// TestAppendFramesDoesNotAllocate: the same for a batch that arrived as
// frames — copied into the reused buffer, one write, one fsync.
func TestAppendFramesDoesNotAllocate(t *testing.T) {
	frames, err := wire.NewEncoder().AppendFrame(nil, genRecords(400))
	if err != nil {
		t.Fatal(err)
	}
	l := openLog(t, t.TempDir(), Options{})
	if err := l.AppendFrames(frames, 400, 0); err != nil { // sizes the buffer, creates the segment
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := l.AppendFrames(frames, 400, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendFrames allocates %.1f times per batch", allocs)
	}
}
