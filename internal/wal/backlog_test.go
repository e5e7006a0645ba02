package wal

import (
	"os"
	"testing"

	"vmp/internal/obs"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestBacklogAndGauges pins the self-measurement contract: Backlog
// reports the segment files and bytes a boot-time Replay would stream,
// PublishGauges mirrors it into the registry, and a covering Commit
// returns both to zero.
func TestBacklogAndGauges(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openLog(t, dir, Options{Metrics: reg})

	if segs, bytes := l.Backlog(); segs != 0 || bytes != 0 {
		t.Fatalf("empty log backlog = %d segments, %d bytes", segs, bytes)
	}

	recs := genRecords(800)
	if err := l.AppendBatch(partition(recs, 4), 0); err != nil {
		t.Fatal(err)
	}
	segs, bytes := l.Backlog()
	if segs != 1 {
		t.Fatalf("backlog segments = %d, want the one active segment", segs)
	}
	if bytes <= 0 {
		t.Fatalf("backlog bytes = %d, want > 0", bytes)
	}

	l.PublishGauges()
	snap := reg.Snapshot()
	if snap.Gauges["wal_backlog_segments"] != int64(segs) {
		t.Fatalf("wal_backlog_segments gauge = %d, want %d", snap.Gauges["wal_backlog_segments"], segs)
	}
	if snap.Gauges["wal_backlog_bytes"] != bytes {
		t.Fatalf("wal_backlog_bytes gauge = %d, want %d", snap.Gauges["wal_backlog_bytes"], bytes)
	}

	// A covering commit truncates every segment the checkpoint covers,
	// so the backlog — and, after the next publish, the gauges — drop
	// to zero.
	if err := l.Commit(1, recs, l.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if segs, bytes := l.Backlog(); segs != 0 || bytes != 0 {
		t.Fatalf("post-commit backlog = %d segments, %d bytes", segs, bytes)
	}
	l.PublishGauges()
	snap = reg.Snapshot()
	if snap.Gauges["wal_backlog_segments"] != 0 || snap.Gauges["wal_backlog_bytes"] != 0 {
		t.Fatalf("post-commit gauges = %+v", snap.Gauges)
	}
}

// TestBacklogCountsClosedSegments forces rotation with a tiny segment
// threshold and checks closed segments' on-disk bytes are counted, not
// just the active files' write offsets.
func TestBacklogCountsClosedSegments(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{segmentBytes: 1024})
	recs := genRecords(2000)
	for lo := 0; lo < len(recs); lo += 100 {
		if err := l.AppendBatch(partition(recs[lo:lo+100], 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	files := segmentFiles(t, dir)
	if len(files) < 4 {
		t.Fatalf("%d segment files under a 1 KiB threshold; the schedule does not rotate", len(files))
	}
	segs, bytes := l.Backlog()
	if segs != len(files) {
		t.Fatalf("backlog segments = %d, want %d on-disk files", segs, len(files))
	}
	if disk := segmentBytes(t, dir); bytes != disk {
		t.Fatalf("backlog bytes = %d, want %d on disk", bytes, disk)
	}
}

// TestBacklogWhileAppending: the sampler calls Backlog on its own
// goroutine while appends grow the active segment in place. Everything
// it reads of the segment list must be read under the log's lock;
// -race holds it to that.
func TestBacklogWhileAppending(t *testing.T) {
	l := openLog(t, t.TempDir(), Options{})
	recs := genRecords(20)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				l.PublishGauges()
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if err := l.AppendBatch(partition(recs, 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if segs, bytes := l.Backlog(); segs != 1 || bytes <= 0 {
		t.Fatalf("backlog after 300 appends = %d segments, %d bytes", segs, bytes)
	}
}
