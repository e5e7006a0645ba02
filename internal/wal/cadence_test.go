package wal

import (
	"bytes"
	"os"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/telemetry/record"
)

// segmentBytes sums the on-disk segment sizes.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, p := range segmentFiles(t, dir) {
		n += fileSize(t, p)
	}
	return n
}

// TestCommitWritesOnlyWhenLogEarnsIt walks the cadence rule: the first
// commit of a log checkpoints at once; after it, commits return without
// touching the disk until the segment bytes appended since reach the
// checkpoint's size, and then one commit folds all of them. Whatever
// the commits did, replay delivers every record appended.
func TestCommitWritesOnlyWhenLogEarnsIt(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	all := genRecords(2000)
	if err := l.AppendBatch(partition(all, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1, all, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	first := checkpointFiles(t, dir)
	if len(first) != 1 || l.Checkpoints() != 1 {
		t.Fatalf("first commit: checkpoints %v, counter %d", first, l.Checkpoints())
	}
	ckptSize := fileSize(t, first[0])

	skipped := int64(0)
	for epoch := int64(2); ; epoch++ {
		if epoch > 1000 {
			t.Fatal("the log never earned a second checkpoint")
		}
		more := genRecords(100)
		if err := l.AppendBatch(partition(more, 4), 0); err != nil {
			t.Fatal(err)
		}
		all = append(all, more...)
		earned := segmentBytes(t, dir) >= ckptSize
		if err := l.Commit(epoch, all, l.Bounds(), 0); err != nil {
			t.Fatal(err)
		}
		got, stats := replayAll(t, l)
		if !bytes.Equal(canonBytes(t, got), canonBytes(t, all)) {
			t.Fatalf("epoch %d: replay is not everything appended (stats %+v)", epoch, stats)
		}
		if !earned {
			skipped++
			if now := checkpointFiles(t, dir); len(now) != 1 || now[0] != first[0] {
				t.Fatalf("epoch %d: commit rewrote the checkpoint with %d segment bytes against its %d: %v",
					epoch, segmentBytes(t, dir), ckptSize, now)
			}
			if stats.SegmentRecords != int64(len(all)-2000) {
				t.Fatalf("epoch %d: replay took %d records from segments, want %d", epoch, stats.SegmentRecords, len(all)-2000)
			}
			continue
		}
		if now := checkpointFiles(t, dir); len(now) != 1 || now[0] == first[0] {
			t.Fatalf("epoch %d: the log earned a checkpoint and got %v", epoch, now)
		}
		if segs := segmentFiles(t, dir); len(segs) != 0 {
			t.Fatalf("epoch %d: segments survive the covering checkpoint: %v", epoch, segs)
		}
		if stats.CheckpointRecords != int64(len(all)) {
			t.Fatalf("epoch %d: stats %+v, want all %d records from the checkpoint", epoch, stats, len(all))
		}
		break
	}
	if skipped < 2 {
		t.Fatalf("only %d commits were skipped before the second checkpoint; the schedule does not exercise the rule", skipped)
	}
	snap := reg.Snapshot()
	if snap.Counters["wal_checkpoints_total"] != 2 || snap.Counters["wal_checkpoint_skipped_total"] != skipped {
		t.Fatalf("counters = %v, want 2 written and %d skipped", snap.Counters, skipped)
	}
}

// TestCommitRowsAsksOnlyWhenEarned: the lazy commit asks for the
// generation's records only for a checkpoint it writes. A commit the
// log has not earned calls fill zero times, one it has earned once per
// chunk of ckptChunkRecords (once here); the checkpoints it writes are
// the ones Commit would.
func TestCommitRowsAsksOnlyWhenEarned(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	all := genRecords(2000)
	calls := 0
	fill := func(dst []record.ViewRecord, lo int) {
		calls++
		copy(dst, all[lo:])
	}
	if err := l.AppendBatch(partition(all, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitRows(1, len(all), fill, l.Bounds(), 0); err != nil || calls != 1 || l.Checkpoints() != 1 {
		t.Fatalf("first commit: err %v, rows called %d times, %d checkpoints", err, calls, l.Checkpoints())
	}
	ckptSize := fileSize(t, checkpointFiles(t, dir)[0])
	skipped := 0
	for epoch := int64(2); l.Checkpoints() == 1; epoch++ {
		if epoch > 1000 {
			t.Fatal("the log never earned a second checkpoint")
		}
		more := genRecords(100)
		if err := l.AppendBatch(partition(more, 4), 0); err != nil {
			t.Fatal(err)
		}
		all = append(all, more...)
		earned := segmentBytes(t, dir) >= ckptSize
		before := calls
		if err := l.CommitRows(epoch, len(all), fill, l.Bounds(), 0); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 0, true: 1}[earned]; calls-before != want {
			t.Fatalf("epoch %d, earned %v: rows called %d times, want %d", epoch, earned, calls-before, want)
		}
		if !earned {
			skipped++
		}
	}
	if skipped < 2 {
		t.Fatalf("only %d commits went unearned; the schedule does not exercise the rule", skipped)
	}
	got, stats := replayAll(t, l)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, all)) || stats.CheckpointRecords != int64(len(all)) {
		t.Fatalf("replay after the lazy checkpoint: stats %+v, want all %d records from the checkpoint", stats, len(all))
	}
}

// TestCommitRowsFillsOneChunkAtATime: an earned CommitRows asks for a
// generation of more than two chunks one chunk at a time — at most
// ckptChunkRecords rows, in order, always into the same buffer — so it
// never holds a copy of more than one chunk, and the checkpoint it
// writes is byte for byte the one Commit writes from a slice of the
// same records.
func TestCommitRowsFillsOneChunkAtATime(t *testing.T) {
	all := genRecords(2*ckptChunkRecords + 300)
	commit := func(how func(l *Log) error) []byte {
		t.Helper()
		dir := t.TempDir()
		l := openLog(t, dir, Options{})
		if err := l.AppendBatch(partition(all, 4), 0); err != nil {
			t.Fatal(err)
		}
		if err := how(l); err != nil || l.Checkpoints() != 1 {
			t.Fatalf("commit: err %v, %d checkpoints", err, l.Checkpoints())
		}
		img, err := os.ReadFile(checkpointFiles(t, dir)[0])
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := commit(func(l *Log) error { return l.Commit(1, all, l.Bounds(), 0) })
	var buf *record.ViewRecord
	next := 0
	got := commit(func(l *Log) error {
		return l.CommitRows(1, len(all), func(dst []record.ViewRecord, lo int) {
			if len(dst) == 0 || len(dst) > ckptChunkRecords || lo != next {
				t.Fatalf("asked for rows [%d, %d), want a chunk of at most %d from %d", lo, lo+len(dst), ckptChunkRecords, next)
			}
			if buf == nil {
				buf = &dst[0]
			} else if &dst[0] != buf {
				t.Fatalf("the chunk from %d is a new buffer; one is reused", lo)
			}
			copy(dst, all[lo:])
			next = lo + len(dst)
		}, l.Bounds(), 0)
	})
	if next != len(all) {
		t.Fatalf("filled %d of %d records", next, len(all))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the chunked checkpoint (%d bytes) differs from Commit's (%d bytes)", len(got), len(want))
	}
}

// TestOpenRestoresCheckpointDebt: the counter behind the cadence rule
// survives a restart. A log reopened over a checkpoint and segments
// must not checkpoint again until the segments — those it found plus
// those it appends — amount to the checkpoint, and must do so then.
func TestOpenRestoresCheckpointDebt(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	all := genRecords(2000)
	if err := l.AppendBatch(partition(all, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1, all, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	ckptSize := fileSize(t, checkpointFiles(t, dir)[0])
	appendSome := func(l *Log) {
		t.Helper()
		more := genRecords(100)
		if err := l.AppendBatch(partition(more, 4), 0); err != nil {
			t.Fatal(err)
		}
		all = append(all, more...)
	}
	// Leave a little over half the debt a checkpoint takes on disk.
	for segmentBytes(t, dir) <= ckptSize/2 {
		appendSome(l)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, Options{})
	if l2.sinceCkpt != segmentBytes(t, dir) || l2.ckptBytes != ckptSize || l2.ckptRecords != 2000 {
		t.Fatalf("reopened with debt %d against checkpoint %d B / %d records; disk has %d B of segments, a %d B checkpoint of 2000",
			l2.sinceCkpt, l2.ckptBytes, l2.ckptRecords, segmentBytes(t, dir), ckptSize)
	}
	if err := l2.Commit(1, all, l2.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if l2.Checkpoints() != 0 {
		t.Fatal("the recovery commit rewrote a checkpoint the log had not earned")
	}
	// What this process appends alone would not earn one; with what the
	// last one left, it does.
	for segmentBytes(t, dir) < ckptSize {
		appendSome(l2)
	}
	if err := l2.Commit(2, all, l2.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if l2.Checkpoints() != 1 {
		t.Fatal("debt found at Open was not counted towards the next checkpoint")
	}
	got, _ := replayAll(t, l2)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, all)) {
		t.Fatal("replay after the restart's checkpoint is not everything appended")
	}
}

// TestBacklogAfterReopen: the sizes Backlog serves are restored by
// Open's scan, torn tail cut off, without a stat per call.
func TestBacklogAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{segmentBytes: 4096})
	recs := genRecords(1500)
	for lo := 0; lo < len(recs); lo += 100 {
		if err := l.AppendBatch(partition(recs[lo:lo+100], 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files := segmentFiles(t, dir)
	// A torn append on the final segment: Open cuts it off, and the
	// tracked size must be what is left.
	tail := files[len(files)-1]
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, append(data, 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, Options{segmentBytes: 4096})
	segs, n := l2.Backlog()
	if segs != len(files) || n != segmentBytes(t, dir) {
		t.Fatalf("backlog after reopen = %d segments, %d bytes; disk has %d, %d", segs, n, len(files), segmentBytes(t, dir))
	}
	if fileSize(t, tail) != int64(len(data)) {
		t.Fatalf("torn tail not cut: %d bytes on disk, %d were appended whole", fileSize(t, tail), len(data))
	}
}
