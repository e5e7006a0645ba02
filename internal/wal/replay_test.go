package wal

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// replayBatches replays l with GOMAXPROCS set to procs, copying out each
// batch, and stops at fn's stop-th call with errStop (never, if 0).
func replayBatches(l *Log, procs, stop int) ([][]record.ViewRecord, ReplayStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var got [][]record.ViewRecord
	stats, err := l.Replay(func(recs []record.ViewRecord) error {
		if len(got)+1 == stop {
			return errStop
		}
		got = append(got, append([]record.ViewRecord(nil), recs...))
		return nil
	}, 0)
	return got, stats, err
}

var errStop = errors.New("stop")

// noGoroutineLeft fails t unless the goroutine count is back to before
// within about a second. A joined worker has called Done but may still be
// unwinding when Replay returns; one that never exits stays counted.
func noGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	for tries := 0; runtime.NumGoroutine() > before; tries++ {
		if tries == 1000 {
			t.Fatalf("%d goroutines before the replay, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplayParallelEqualsSequential(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(ckptChunkRecords + 1500)
	l := openLog(t, dir, Options{})
	var covered []uint64
	for lo := 0; lo < 400; lo += 100 {
		if err := l.AppendBatch(partition(recs[lo:lo+100], 2), 0); err != nil {
			t.Fatal(err)
		}
		if lo == 100 {
			covered = l.Bounds() // sequences 1 and 2; 3 and 4 share their segment
		}
	}
	if err := l.Commit(1, recs[400:ckptChunkRecords+900], covered, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// One segment per batch from here on.
	l = openLog(t, dir, Options{segmentBytes: 1})
	for lo := ckptChunkRecords + 900; lo < len(recs); lo += 150 {
		if err := l.AppendBatch(partition(recs[lo:lo+150], 3), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 4 {
		t.Fatalf("segments %v, want the covered one and at least three more", segs)
	}

	// The first replay takes the images Open verified; the rest read the
	// files again. All must agree.
	l = openLog(t, dir, Options{segmentBytes: 1})
	if l.bootCkpt == nil || l.bootTail == nil {
		t.Fatal("Open kept no checkpoint or tail image for the first replay")
	}
	handoff, handoffStats, err := replayBatches(l, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if handoffStats.CheckpointRecords != ckptChunkRecords+500 || handoffStats.SkippedRecords != 200 || len(handoff) != 2+2+len(segs)-1 {
		t.Fatalf("replay of the built log: %d batches, %+v", len(handoff), handoffStats)
	}

	// A torn final record: half a header at the end of the last segment.
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seq, seqStats, err := replayBatches(l, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, parStats, err := replayBatches(l, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.TornTails != 1 {
		t.Fatalf("sequential replay over a torn tail: %+v", seqStats)
	}
	if !reflect.DeepEqual(seq, par) || seqStats != parStats {
		t.Fatalf("GOMAXPROCS 4 replay differs from GOMAXPROCS 1: %d vs %d batches, %+v vs %+v", len(par), len(seq), parStats, seqStats)
	}
	handoffStats.TornTails = 1
	if !reflect.DeepEqual(handoff, seq) || handoffStats != seqStats {
		t.Fatal("the replay from Open's images differs from one that read the files")
	}

	t.Run("fn error", func(t *testing.T) {
		for _, procs := range []int{1, 4} {
			for _, k := range []int{1, 2, 4, len(seq)} {
				before := runtime.NumGoroutine()
				got, _, err := replayBatches(l, procs, k)
				if !errors.Is(err, errStop) || len(got) != k-1 {
					t.Fatalf("GOMAXPROCS %d, fn fails at call %d: %d calls, err %v", procs, k, len(got), err)
				}
				noGoroutineLeft(t, before)
			}
		}
	})

	t.Run("decode error", func(t *testing.T) {
		// Break the frame magic of the middle per-batch segment's one
		// record and reseal its CRC: framing passes, the decode does not.
		j := len(segs) / 2
		data, err := os.ReadFile(segs[j])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scanSegment(data, func(_ uint64, _ int64, frames []byte) error {
			frames[4] ^= 0xff
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sealRecord(data, 0)
		_, want := DecodeSegment(data, wire.NewDecoder(), nil)
		if want == nil {
			t.Fatal("the damaged record still decodes")
		}
		if err := os.WriteFile(segs[j], data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			before := runtime.NumGoroutine()
			got, _, err := replayBatches(l, procs, 0)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("GOMAXPROCS %d: replay error %v, want %v", procs, err, want)
			}
			// Everything before the broken record, and nothing after.
			if n := 2 + 2 + j - 1; len(got) != n || !reflect.DeepEqual(got, seq[:n]) {
				t.Fatalf("GOMAXPROCS %d: %d batches delivered before the decode error, want the first %d", procs, len(got), n)
			}
			noGoroutineLeft(t, before)
		}
	})
}

// TestCommitDropsOpensImages: a checkpoint written between Open and the
// first Replay is what that Replay delivers, and an append in between
// is in it — Open's images of the files are not used once stale.
func TestCommitDropsOpensImages(t *testing.T) {
	dir := t.TempDir()
	old, fresh := genRecords(10), genRecords(300)
	l := openLog(t, dir, Options{})
	if err := l.Commit(1, old, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(partition(old, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// An append after Open: the tail image no longer matches the file.
	l = openLog(t, dir, Options{})
	if err := l.AppendBatch(partition(old, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, stats := replayAll(t, l); stats.CheckpointRecords != 10 || stats.SegmentRecords != 20 {
		t.Fatalf("replay after an append since Open: %+v, want 10 checkpoint and 20 segment records", stats)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A checkpoint after Open replaces the one Open read.
	l = openLog(t, dir, Options{})
	if err := l.Commit(2, fresh, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if l.Checkpoints() != 1 {
		t.Fatal("the commit wrote no checkpoint")
	}
	got, stats := replayAll(t, l)
	if stats.Epoch != 2 || stats.CheckpointRecords != 300 || stats.SegmentRecords != 0 || len(got) != 300 {
		t.Fatalf("replay after a commit since Open: %+v, want epoch 2's 300 records", stats)
	}
}
