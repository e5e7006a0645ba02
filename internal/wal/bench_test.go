package wal

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"vmp/internal/ecosystem"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// BenchmarkWALAppend is the in-package microscope for bench/'s
// wal.append_ms_per_batch: one op lands one 2000-record batch as one
// log record, written and fsynced. parts hands AppendBatch the batch as
// the one part Engine.IngestFrames does (the encoding path bench's
// traced runs take); frames hands AppendFrames the same records' wire
// frame, as an untraced binary POST does. The log is recycled every 200
// ops outside the timer so segment accumulation doesn't turn this into
// a filesystem benchmark.
func BenchmarkWALAppend(b *testing.B) {
	recs := genRecords(2000)
	parts := one(recs)
	frame, err := wire.NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		append func(*Log) error
	}{
		{"parts", func(l *Log) error { return l.AppendBatch(parts, 0) }},
		{"frames", func(l *Log) error { return l.AppendFrames(frame, int64(len(recs)), 0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			root := b.TempDir()
			var (
				l   *Log
				gen int
			)
			boot := func() {
				dir := filepath.Join(root, "wal-"+strconv.Itoa(gen))
				gen++
				var err error
				l, err = Open(Options{
					Dir:   dir,
					Clock: simclock.NewManual(simclock.StudyStart),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			shutdown := func() {
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
				_ = os.RemoveAll(filepath.Join(root, "wal-"+strconv.Itoa(gen-1)))
			}
			boot()
			defer func() { shutdown() }()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%200 == 0 {
					b.StopTimer()
					shutdown()
					boot()
					b.StartTimer()
				}
				if err := c.append(l); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkWALReplay is the microscope for bench/'s wal.replay_ms: it
// replays the crash image ingest_wal recovers from, built from the same
// records (the ecosystem at seed 1809, stride 12: ≈ 110 k). Two thirds
// are a checkpoint of canonically sorted 8,192-record frames, whose
// string tables hold 11–13 k entries each; the last third is the
// segments' 500-record batches in store order. One op = one full replay
// to a no-op callback; make bench-wal runs it at -cpu 1,2, since the
// decode fans out over GOMAXPROCS workers. The records/s bounds how
// much log a daemon can recover per second of downtime.
func BenchmarkWALReplay(b *testing.B) {
	const batch = 500
	recs := ecosystem.New(ecosystem.Config{Seed: ecosystem.DefaultSeed, SnapshotStride: 12}).GenerateStore().All()
	n := len(recs)
	l, err := Open(Options{
		Dir:   b.TempDir(),
		Clock: simclock.NewManual(simclock.StudyStart),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	ckpt := slices.Clone(recs[:2*n/3])
	telemetry.CanonicalSort(ckpt)
	if err := l.Commit(1, ckpt, l.Bounds(), 0); err != nil {
		b.Fatal(err)
	}
	for lo := 2 * n / 3; lo < n; lo += batch {
		if err := l.AppendBatch(one(recs[lo:min(lo+batch, n)]), 0); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := l.Replay(func(recs []record.ViewRecord) error { return nil }, 0)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Delivered() != int64(n) {
			b.Fatalf("replay delivered %d records, want %d", stats.Delivered(), n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
}
