package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/telemetry/record"
)

// faults is a script for the files a Log creates — segments and
// checkpoint temp files, both through Log.create: which write
// lands only half its bytes, whether cutting that half back fails, and
// which fsync fails. It also counts the calls, for the tests that pin
// how many a batch costs. The Log makes every call under its own mutex,
// so a test reads the counts only between its own appends.
type faults struct {
	shortWrite   int  // the nth Write (from 1) lands half its bytes and fails; 0 = none
	failTruncate bool // Truncate fails
	failSync     int  // the nth Sync (from 1) fails and drops what it was asked to flush; 0 = none

	writes, syncs int
	dropped       []droppedRange
}

type droppedRange struct {
	path     string
	off, end int64
}

var errInjected = errors.New("injected disk fault")

// inject makes every file l creates from now on follow fl. Segments
// are created by the first append after Open, so this runs first.
func inject(l *Log, fl *faults) {
	l.create = func(path string) (segFile, error) {
		f, err := createSegment(path)
		if err != nil {
			return nil, err
		}
		return &faultFile{segFile: f, path: path, fl: fl}, nil
	}
}

// countFileCalls injects a script with no faults, for its counters.
func countFileCalls(l *Log) *faults {
	fl := &faults{}
	inject(l, fl)
	return fl
}

type faultFile struct {
	segFile
	path         string
	fl           *faults
	size, synced int64
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fl.writes++
	if f.fl.writes == f.fl.shortWrite {
		n, err := f.segFile.Write(p[:len(p)/2])
		f.size += int64(n)
		if err == nil {
			err = errInjected
		}
		return n, err
	}
	n, err := f.segFile.Write(p)
	f.size += int64(n)
	return n, err
}

func (f *faultFile) Truncate(size int64) error {
	if f.fl.failTruncate {
		return errInjected
	}
	f.size = size
	return f.segFile.Truncate(size)
}

// Sync, when it is the one to fail, behaves as Linux does: the dirty
// pages are dropped and marked clean, so the bytes written since the
// last good fsync are gone and the next fsync has nothing to object to.
func (f *faultFile) Sync() error {
	f.fl.syncs++
	if f.fl.syncs == f.fl.failSync {
		f.fl.dropped = append(f.fl.dropped, droppedRange{f.path, f.synced, f.size})
		f.synced = f.size
		return errInjected
	}
	f.synced = f.size
	return f.segFile.Sync()
}

// crash makes the disk look the way a power cut after the run would
// leave it: every range a failed fsync dropped reads as zeros.
func (fl *faults) crash(t *testing.T) {
	t.Helper()
	for _, d := range fl.dropped {
		f, err := os.OpenFile(d.path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, d.end-d.off), d.off); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// appendAll appends batches of 60 records cut from recs and returns the
// records of those the log acknowledged, and which batches those were.
func appendAll(l *Log, recs []record.ViewRecord) (acked []record.ViewRecord, ok []bool) {
	for lo := 0; lo < len(recs); lo += 60 {
		err := l.AppendBatch(partition(recs[lo:lo+60], 3), 0)
		if err == nil {
			acked = append(acked, recs[lo:lo+60]...)
		}
		ok = append(ok, err == nil)
	}
	return acked, ok
}

// reopenAndReplay is the recovery half of every fault test: a fresh Log
// over the same directory, and what it replays.
func reopenAndReplay(t *testing.T, dir string) (*Log, []record.ViewRecord, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	got, _ := replayAll(t, l)
	return l, got, reg
}

// TestTornWriteIsCutBack: a write that fails half-way must not leave
// its half in the segment. If it did, the next append — acknowledged —
// would sit behind bytes that recovery truncates as a torn tail, and go
// with them. Replay after a reopen must be exactly the acked batches.
func TestTornWriteIsCutBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		short int
		want  []bool
	}{
		{"mid segment", 2, []bool{true, false, true, true}},
		{"first write of a segment", 1, []bool{false, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			l := openLog(t, dir, Options{Metrics: reg})
			inject(l, &faults{shortWrite: tc.short})
			recs := genRecords(240)
			acked, ok := appendAll(l, recs)
			for i := range tc.want {
				if ok[i] != tc.want[i] {
					t.Errorf("batch %d acked = %v; want the failed write alone refused (%v)", i, ok[i], tc.want)
				}
			}
			// The failed batch consumed no sequence.
			if got := l.Bounds()[0]; got != 3 {
				t.Errorf("bounds after 3 acked batches = %d", got)
			}
			if n := reg.Snapshot().Counters["wal_errors_total"]; n != 1 {
				t.Errorf("wal_errors_total = %d, want 1", n)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, got, reg2 := reopenAndReplay(t, dir)
			if n := reg2.Snapshot().Counters["wal_torn_tail_total"]; n != 0 {
				t.Errorf("recovery found %d torn tails; the failed write's bytes were left in the segment", n)
			}
			if !bytes.Equal(canonBytes(t, got), canonBytes(t, acked)) {
				t.Fatalf("replayed %d records, acked %d: not the same set", len(got), len(acked))
			}
		})
	}
}

// TestUncutTornWriteStopsTheLog: when the half-written record cannot be
// cut back either, nothing more may be appended behind it. The log
// refuses every later append (the engine turns that into 503s) and
// recovery, on the next Open, cuts the tail and resumes.
func TestUncutTornWriteStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	inject(l, &faults{shortWrite: 2, failTruncate: true})
	recs := genRecords(240)
	acked, ok := appendAll(l, recs)
	if !ok[0] || ok[1] || ok[2] || ok[3] {
		t.Errorf("acked = %v; want the first batch only, then fail-stop", ok)
	}
	if n := reg.Snapshot().Counters["wal_errors_total"]; n != 3 {
		t.Errorf("wal_errors_total = %d, want one per refused append (3)", n)
	}
	if err := l.Close(); err == nil {
		t.Error("Close of a stopped log reported no error")
	}

	l2, got, reg2 := reopenAndReplay(t, dir)
	if n := reg2.Snapshot().Counters["wal_torn_tail_total"]; n != 1 {
		t.Fatalf("wal_torn_tail_total after reopen = %d, want the sealed tail cut once", n)
	}
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, acked)) {
		t.Fatalf("replayed %d records, acked %d: not the same set", len(got), len(acked))
	}
	// Reopened, the log is whole again.
	if err := l2.AppendBatch(partition(recs[60:120], 3), 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := replayAll(t, l2); len(got) != 120 {
		t.Fatalf("replayed %d records after the retry, want 120", len(got))
	}
}

// TestFsyncFailureIsSticky: after a failed fsync the kernel may have
// dropped the pages it could not write and marked them clean, so the
// next fsync succeeds over a hole. A log that carried on would
// acknowledge batches that sit behind that hole — unreadable after a
// crash. It must refuse appends instead; what it acked before the
// failure is what recovery finds.
func TestFsyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})
	fl := &faults{failSync: 2}
	inject(l, fl)
	acked, ok := appendAll(l, genRecords(240))
	if !ok[0] || ok[1] || ok[2] || ok[3] {
		t.Errorf("acked = %v; want the first batch only: the second's fsync failed and the log must stop", ok)
	}
	if fl.syncs != 2 {
		t.Errorf("%d fsyncs issued; a failed fsync must not be retried", fl.syncs)
	}
	if n := reg.Snapshot().Counters["wal_errors_total"]; n != 3 {
		t.Errorf("wal_errors_total = %d, want 3", n)
	}
	if err := l.Close(); err == nil {
		t.Error("Close of a stopped log reported no error")
	}
	fl.crash(t)

	_, got, _ := reopenAndReplay(t, dir)
	if !bytes.Equal(canonBytes(t, got), canonBytes(t, acked)) {
		t.Fatalf("replayed %d records, acked %d: not the same set", len(got), len(acked))
	}
}

// TestReopenOverEmptySegment: a segment whose only write was cut back
// (or torn by a crash and cut by recovery) is an empty file named after
// the very sequence the next append will take. Open must clear it away,
// or that append's exclusive create collides with it.
func TestReopenOverEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	inject(l, &faults{shortWrite: 1})
	recs := genRecords(60)
	if err := l.AppendBatch(partition(recs, 3), 0); err == nil {
		t.Fatal("the injected short write was acknowledged")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if files := segmentFiles(t, dir); len(files) != 1 || fileSize(t, files[0]) != 0 {
		t.Fatalf("set-up: want one empty segment, have %v", files)
	}
	l2 := openLog(t, dir, Options{})
	if segs, n := l2.Backlog(); segs != 0 || n != 0 {
		t.Fatalf("backlog over an empty segment = %d segments, %d bytes", segs, n)
	}
	if err := l2.AppendBatch(partition(recs, 3), 0); err != nil {
		t.Fatalf("append after reopening over an empty segment: %v", err)
	}
	if got, _ := replayAll(t, l2); !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
		t.Fatal("replay is not the one acked batch")
	}
}

// TestDirectoryIsSyncedBeforeASegmentIsUsed: the fsync that backs an
// ack covers a segment's bytes, not its name. The directory must be
// fsynced when a segment is created, before the append that asked for
// it writes anything; if that fails the append is refused, no segment
// is left behind, and the next append starts over.
func TestDirectoryIsSyncedBeforeASegmentIsUsed(t *testing.T) {
	// The subtest is named after the log's one durability policy
	// (PolicyBatch: every append is fsynced before it is acked).
	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		// One batch fills a segment, so every append creates one.
		l := openLog(t, dir, Options{segmentBytes: 1, Metrics: reg})
		fl := countFileCalls(l)
		dirSyncs := 0
		l.syncDir = func(path string) error {
			dirSyncs++
			// Every earlier segment took one write; this one none yet.
			if files := segmentFiles(t, dir); path != dir || len(files) != fl.writes+1 {
				t.Errorf("directory sync %d of %s: %d segments after %d writes", dirSyncs, path, len(files), fl.writes)
			}
			if dirSyncs == 2 {
				return errInjected
			}
			return syncDir(path)
		}
		recs := genRecords(240)
		var acked []record.ViewRecord
		for i, lo := 0, 0; lo < len(recs); i, lo = i+1, lo+60 {
			err := l.AppendBatch(partition(recs[lo:lo+60], 3), 0)
			if refused := i == 1; (err != nil) != refused {
				t.Fatalf("append %d: %v", i, err)
			} else if refused {
				if segs, _ := l.Backlog(); segs != 1 || len(segmentFiles(t, dir)) != 1 {
					t.Fatalf("the refused append left a segment behind: %d tracked, %v on disk", segs, segmentFiles(t, dir))
				}
				continue
			}
			acked = append(acked, recs[lo:lo+60]...)
		}
		counters := reg.Snapshot().Counters
		if dirSyncs != 4 || counters["wal_errors_total"] != 1 {
			t.Errorf("%d directory syncs, %d errors counted; want 4 (one failed, one retried) and 1", dirSyncs, counters["wal_errors_total"])
		}
		if counters["wal_fsync_total"] != 3 {
			t.Errorf("wal_fsync_total = %d, want one per acked batch and none for the directory", counters["wal_fsync_total"])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, got, _ := reopenAndReplay(t, dir); !bytes.Equal(canonBytes(t, got), canonBytes(t, acked)) {
			t.Fatalf("replayed %d records, acked %d: not the same set", len(got), len(acked))
		}
	})
}

// TestCheckpointFaultsKeepThePreviousOne: a checkpoint is written as a
// temp file, fsynced, renamed into place, and made to stick by a
// directory fsync. When either fsync fails, Commit must fail (the
// engine counts it and the log keeps its segments), and nothing of the
// half-made checkpoint may be loaded later: a reopen finds the previous
// checkpoint and replays exactly what was acked.
func TestCheckpointFaultsKeepThePreviousOne(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(l *Log)
	}{
		{"temp file fsync", func(l *Log) { inject(l, &faults{failSync: 1}) }},
		{"directory fsync", func(l *Log) { l.syncDir = func(string) error { return errInjected } }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openLog(t, dir, Options{})
			recs := genRecords(600)
			if err := l.AppendBatch(partition(recs[:200], 2), 0); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(1, recs[:200], l.Bounds(), 0); err != nil {
				t.Fatal(err)
			}
			first := checkpointFiles(t, dir)
			for lo := 200; lo < len(recs); lo += 200 {
				if err := l.AppendBatch(partition(recs[lo:lo+200], 2), 0); err != nil {
					t.Fatal(err)
				}
			}
			// No segment is created from here on: the checkpoint's
			// temp file is the first file the fault script sees.
			tc.inject(l)
			if err := l.Commit(2, recs, l.Bounds(), 0); err == nil {
				t.Fatal("Commit reported success over a failed fsync")
			}
			if got := checkpointFiles(t, dir); !slices.Equal(got, first) {
				t.Fatalf("checkpoints after the failed commit = %v, want the previous one alone (%v)", got, first)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("the failed commit left %v behind", tmps)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, stats := replayAll(t, openLog(t, dir, Options{}))
			if stats.Epoch != 1 || stats.CheckpointRecords != 200 || stats.SegmentRecords != 400 {
				t.Fatalf("reopen replayed %+v; want the first checkpoint's 200 records and 400 from segments", stats)
			}
			if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs)) {
				t.Fatalf("replayed %d records, acked %d: not the same set", len(got), len(recs))
			}
		})
	}
}
