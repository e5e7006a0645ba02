package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/telemetry/record"
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
// AppendBatch takes. Any deterministic partition works: replay order
// is canonicalized downstream.
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
	if opts.Shards == 0 {
		opts.Shards = 4
	}
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
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "seg-*.wal"))
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
	l := openLog(t, dir, Options{Policy: PolicyBatch, Metrics: reg})
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
		t.Fatal("PolicyBatch appended without fsyncing")
	}
}

func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Policy: PolicyOff})
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
	l := openLog(t, dir, Options{Policy: PolicyBatch})
	recs := genRecords(400)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	before := l.Bounds()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{Policy: PolicyBatch})
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
	l := openLog(t, dir, Options{Policy: PolicyBatch, Metrics: reg})
	recs := genRecords(800)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
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
	// One AppendBatch = one log entry per non-empty shard part; the
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
	l := openLog(t, dir, Options{Policy: PolicyBatch})
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
	l2 := openLog(t, dir, Options{Policy: PolicyBatch})
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

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation on nearly every append.
	l := openLog(t, dir, Options{Shards: 2, Policy: PolicyOff, SegmentBytes: 1024})
	recs := genRecords(2000)
	for lo := 0; lo < len(recs); lo += 100 {
		if err := l.AppendBatch(partition(recs[lo:lo+100], 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segmentFiles(t, dir)); n < 4 {
		t.Fatalf("%d segment files under a 1 KiB rotation threshold, expected several", n)
	}
	got, _ := replayAll(t, l)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("multi-segment replay is not the appended multiset")
	}
}

func TestShardCountShrinkReplaysStaleDirs(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{Shards: 8, Policy: PolicyBatch})
	recs := genRecords(640)
	if err := l.AppendBatch(partition(recs, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen narrower: shards 4..7 become stale directories. Their
	// records still replay, and the first commit retires them.
	l2 := openLog(t, dir, Options{Shards: 4, Policy: PolicyBatch})
	got, _ := replayAll(t, l2)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("stale shard directories were not replayed")
	}
	if err := l2.Commit(1, got, l2.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if dirs, _ := filepath.Glob(filepath.Join(dir, "shard-000[4-7]")); len(dirs) != 0 {
		t.Fatalf("stale shard dirs survive a commit: %v", dirs)
	}
	got2, _ := replayAll(t, l2)
	if !bytes.Equal(canonBytes(t, got2), canonBytes(t, recs)) {
		t.Fatal("post-commit replay lost stale-shard records")
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

func TestIntervalPolicyCloseIsClean(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Policy: PolicyInterval, SyncEvery: time.Millisecond, Metrics: reg})
	recs := genRecords(200)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	// The group-commit loop runs on a real ticker; poll briefly for at
	// least one background sync, then Close must stop the loop and
	// leave everything durable.
	for i := 0; i < 1000 && reg.Snapshot().Counters["wal_fsync_total"] == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if reg.Snapshot().Counters["wal_fsync_total"] == 0 {
		t.Fatal("group-commit loop never synced")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, Options{Policy: PolicyBatch})
	got, _ := replayAll(t, l2)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("interval-policy log lost records across close/reopen")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"batch": PolicyBatch, "interval": PolicyInterval, "off": PolicyOff} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Policy(%q).String() = %q", s, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}
