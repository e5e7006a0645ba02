package live

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wal"
	"vmp/internal/wire"
)

// The engine-WAL contract tests: durability precedes acknowledgement,
// an epoch commit makes replay reconstruct exactly the published
// generation, and a crash between admission and the next epoch loses
// nothing that was acknowledged.

var _ WAL = (*wal.Log)(nil)

func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{
		Dir:    dir,
		Policy: wal.PolicyBatch,
		Clock:  simclock.NewManual(simclock.StudyStart),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

// genJSONL renders a generation the canonical way; byte equality of
// two generations is the pipeline's definition of "same data".
func genJSONL(t *testing.T, g *Generation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.EncodeJSONL(&buf, g.Dataset.All()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayInto streams a WAL into an engine through the normal Ingest
// path, the way vmpd's boot sequence does.
func replayInto(t *testing.T, l *wal.Log, e *Engine) {
	t.Helper()
	if _, err := l.Replay(func(recs []telemetry.ViewRecord) error {
		for {
			res, err := e.Ingest(recs)
			if err != nil {
				return err
			}
			if res.Backpressured == 0 {
				return nil
			}
		}
	}, 0); err != nil {
		t.Fatal(err)
	}
}

// postBinary sends one binary-encoded batch to a server's ingest
// endpoint and returns the status.
func postBinary(t *testing.T, url string, recs []telemetry.ViewRecord) int {
	t.Helper()
	frame, err := wire.NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/views", wire.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestWALKillPointCrashConsistency is the kill-point test: batches are
// acknowledged over HTTP by a WAL-backed engine, the engine is dropped
// without ever cutting an epoch (the crash window where all acked data
// lives only in queues, pending buffers, and the WAL), and a rebuilt
// engine replaying that WAL must answer every query byte-identically
// to an engine that never crashed.
func TestWALKillPointCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(2000)

	wlog := openTestWAL(t, dir)
	crashed := NewEngine(Config{Shards: 4, Clock: simclock.NewManual(simclock.StudyStart), WAL: wlog})
	srv := httptest.NewServer(NewServer(crashed).Handler())
	for lo := 0; lo < len(recs); lo += 500 {
		if code := postBinary(t, srv.URL, recs[lo:lo+500]); code != http.StatusAccepted {
			t.Fatalf("POST batch at %d: status %d", lo, code)
		}
	}
	srv.Close()
	// "Crash": the engine is abandoned with every acked record still
	// volatile — no Snapshot, no Close-time final epoch, no WAL commit.
	// (Detaching first keeps the leaked-goroutine cleanup below from
	// writing a shutdown epoch into the WAL, which a real crash never
	// would.)
	crashed.AttachWAL(nil)
	defer crashed.Close()
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	// The no-crash control: same records, no WAL, one epoch.
	control := newTestEngine(t, Config{Shards: 4})
	mustIngest(t, control, recs)
	control.Snapshot()

	// Recovery: reopen the directory, replay through Ingest, attach,
	// cut the boot epoch — vmpd's exact boot sequence.
	wlog2 := openTestWAL(t, dir)
	rebuilt := newTestEngine(t, Config{Shards: 4})
	replayInto(t, wlog2, rebuilt)
	rebuilt.AttachWAL(wlog2)
	rebuilt.Snapshot()

	if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("rebuilt generation differs from the no-crash control")
	}

	day := simclock.StudyStart.Format("2006-01-02")
	ctlSrv := httptest.NewServer(NewServer(control).Handler())
	defer ctlSrv.Close()
	rbSrv := httptest.NewServer(NewServer(rebuilt).Handler())
	defer rbSrv.Close()
	for _, q := range []string{
		"/v1/query/share?dim=protocol",
		"/v1/query/share?dim=cdn&by=views",
		"/v1/query/top-publishers?n=5",
		"/v1/query/window?start=" + day + "&days=3",
	} {
		want := get(t, ctlSrv.URL+q)
		got := get(t, rbSrv.URL+q)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s answers differ after crash recovery:\n got: %s\nwant: %s", q, got, want)
		}
	}
}

// TestWALSurvivesShardCountChange: the log knows nothing of the engine's
// shards — a batch is one record whatever parts it was admitted in — so
// a daemon killed with one -shards value and booted with another
// recovers the same generation, crash window and checkpoint both, and
// the log it appends to afterwards is still one stream.
func TestWALSurvivesShardCountChange(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(2400)

	wlog := openTestWAL(t, dir)
	crashed := NewEngine(Config{Shards: 8, Clock: simclock.NewManual(simclock.StudyStart), WAL: wlog})
	mustIngest(t, crashed, recs[:1200])
	crashed.Snapshot() // the log's first checkpoint, cut under 8 shards
	for lo := 1200; lo < 2000; lo += 400 {
		mustIngest(t, crashed, recs[lo:lo+400]) // acked, never cut
	}
	crashed.AttachWAL(nil)
	defer crashed.Close()
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	control := newTestEngine(t, Config{Shards: 8})
	mustIngest(t, control, recs)
	control.Snapshot()

	for _, shards := range []int{3, 16} {
		wlog2 := openTestWAL(t, dir)
		rebuilt := newTestEngine(t, Config{Shards: shards})
		calls := 0
		if _, err := wlog2.Replay(func(batch []telemetry.ViewRecord) error {
			calls++
			mustIngest(t, rebuilt, batch)
			return nil
		}, 0); err != nil {
			t.Fatal(err)
		}
		// One checkpoint frame (1200 < 8192 records), then each acked
		// batch whole. The first boot's cut may fold them into a new
		// checkpoint, so only that boot's count is fixed.
		if shards == 3 && calls != 1+2 {
			t.Fatalf("replay made %d deliveries, want the checkpoint and 2 whole batches", calls)
		}
		rebuilt.AttachWAL(wlog2)
		rebuilt.Snapshot()
		if shards == 16 {
			// The second boot also takes what the first one was still owed.
			mustIngest(t, rebuilt, recs[2000:])
			rebuilt.Snapshot()
			if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
				t.Fatal("generation after two re-sharded boots differs from the control")
			}
		} else if rebuilt.Generation().Records != 2000 {
			t.Fatalf("%d shards: recovered %d records, want the 2000 acked", shards, rebuilt.Generation().Records)
		}
		rebuilt.AttachWAL(nil)
		if err := wlog2.Close(); err != nil {
			t.Fatal(err)
		}
		if dirs, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(dirs) != 0 {
			t.Fatalf("the log grew per-shard directories: %v", dirs)
		}
	}
}

// TestWALReplayIdempotent pins replay idempotence at the engine level:
// replaying the same WAL twice into two fresh engines publishes
// byte-identical generations.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(1200)
	wlog := openTestWAL(t, dir)
	e := newTestEngine(t, Config{Shards: 4, WAL: wlog})
	mustIngest(t, e, recs[:700])
	e.Snapshot() // commit + truncate: replay must cross the checkpoint
	mustIngest(t, e, recs[700:])
	e.Flush() // admitted but uncommitted: the segment tail

	var gens [][]byte
	for i := 0; i < 2; i++ {
		re := newTestEngine(t, Config{Shards: 4})
		replayInto(t, wlog, re)
		re.Snapshot()
		gens = append(gens, genJSONL(t, re.Generation()))
	}
	if !bytes.Equal(gens[0], gens[1]) {
		t.Fatal("double replay published different generations")
	}
	control := newTestEngine(t, Config{Shards: 4})
	mustIngest(t, control, recs)
	control.Snapshot()
	if !bytes.Equal(gens[0], genJSONL(t, control.Generation())) {
		t.Fatal("replayed generation differs from direct ingest of the same records")
	}
}

// TestWALCommitTruncatesOnEpoch: each published epoch folds the WAL
// forward — after Snapshot, a fresh replay serves the generation from
// the checkpoint, and the appended segments are gone.
func TestWALCommitTruncatesOnEpoch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	wlog, err := wal.Open(wal.Options{
		Dir:     dir,
		Policy:  wal.PolicyBatch,
		Clock:   simclock.NewManual(simclock.StudyStart),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	e := newTestEngine(t, Config{Shards: 4, Metrics: reg, WAL: wlog})
	recs := genRecords(900)
	mustIngest(t, e, recs)
	g := e.Snapshot()
	if g.Records != 900 {
		t.Fatalf("epoch holds %d records, want 900", g.Records)
	}
	snap := reg.Snapshot()
	if snap.Counters["wal_truncated_total"] == 0 {
		t.Fatal("epoch publish did not truncate the WAL")
	}
	if snap.Counters["live_wal_errors_total"] != 0 {
		t.Fatalf("wal errors during clean run: %d", snap.Counters["live_wal_errors_total"])
	}
	re := newTestEngine(t, Config{Shards: 4})
	replayInto(t, wlog, re)
	re.Snapshot()
	if !bytes.Equal(genJSONL(t, re.Generation()), genJSONL(t, g2gen(e))) {
		t.Fatal("checkpoint replay does not reconstruct the published generation")
	}
}

func g2gen(e *Engine) *Generation { return e.Generation() }

// errWAL fails every append, to pin the rejection contract.
type errWAL struct{}

func (w *errWAL) AppendBatch([][]telemetry.ViewRecord, obs.SpanID) error {
	return errors.New("disk on fire")
}
func (w *errWAL) Bounds() []uint64                                                 { return make([]uint64, 1) }
func (w *errWAL) Commit(int64, []telemetry.ViewRecord, []uint64, obs.SpanID) error { return nil }

// TestWALAppendErrorRejectsBatchWhole: a WAL append failure must
// reject the batch with nothing enqueued (503 over HTTP, counted), so
// the client's retry cannot duplicate records.
func TestWALAppendErrorRejectsBatchWhole(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Config{Shards: 4, Metrics: reg, WAL: &errWAL{}})
	srv := httptest.NewServer(NewServer(e).Handler())
	defer srv.Close()
	if code := postBinary(t, srv.URL, genRecords(100)); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with failing WAL: status %d, want 503", code)
	}
	if n := reg.Snapshot().Counters["live_wal_errors_total"]; n != 1 {
		t.Fatalf("live_wal_errors_total = %d, want 1", n)
	}
	e.AttachWAL(nil)
	if g := e.Snapshot(); g.Records != 0 {
		t.Fatalf("%d records enqueued despite WAL failure", g.Records)
	}
}

// TestWALCrashAfterSkippedCheckpoints is the kill-point test for the
// checkpoint cadence: one large epoch earns the log its checkpoint,
// then K small epochs are cut whose commits write nothing — their
// records live only in segments the old checkpoint does not cover —
// more batches are acked and never cut, and the engine is dropped.
// Recovery must publish exactly the acked set, and its own cut must not
// rewrite a checkpoint the log has not earned.
func TestWALCrashAfterSkippedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(4000)

	reg := obs.NewRegistry()
	wlog, err := wal.Open(wal.Options{
		Dir: dir, Policy: wal.PolicyBatch,
		Clock: simclock.NewManual(simclock.StudyStart), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	crashed := NewEngine(Config{Shards: 4, Clock: simclock.NewManual(simclock.StudyStart), Metrics: reg, WAL: wlog})
	mustIngest(t, crashed, recs[:3000])
	crashed.Snapshot()
	if wlog.Checkpoints() != 1 {
		t.Fatalf("the first epoch wrote %d checkpoints, want 1", wlog.Checkpoints())
	}
	const skippedEpochs = 5
	for k := 0; k < skippedEpochs; k++ {
		mustIngest(t, crashed, recs[3000+100*k:3100+100*k])
		if g := crashed.Snapshot(); g.Records != 3100+100*k {
			t.Fatalf("epoch %d publishes %d records", k+2, g.Records)
		}
	}
	snap := reg.Snapshot()
	if wlog.Checkpoints() != 1 || snap.Counters["wal_checkpoint_skipped_total"] != skippedEpochs {
		t.Fatalf("%d small epochs: %d checkpoints written, %d skipped", skippedEpochs,
			wlog.Checkpoints(), snap.Counters["wal_checkpoint_skipped_total"])
	}
	if snap.Counters["live_wal_errors_total"] != 0 {
		t.Fatalf("a skipped checkpoint was counted as a WAL error (%d)", snap.Counters["live_wal_errors_total"])
	}
	mustIngest(t, crashed, recs[3500:]) // acked, never cut
	crashed.AttachWAL(nil)              // as in the kill-point test: no shutdown epoch reaches the log
	defer crashed.Close()
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	control := newTestEngine(t, Config{Shards: 4})
	mustIngest(t, control, recs)
	control.Snapshot()

	wlog2 := openTestWAL(t, dir)
	rebuilt := newTestEngine(t, Config{Shards: 4})
	replayInto(t, wlog2, rebuilt)
	rebuilt.AttachWAL(wlog2)
	rebuilt.Snapshot()
	if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("recovery across skipped checkpoints does not publish exactly the acked records")
	}
	if wlog2.Checkpoints() != 0 {
		t.Fatal("the recovery cut rewrote a checkpoint the log had not earned")
	}
	// The recovered log keeps folding forward: enough new bytes, and
	// the next cut checkpoints and a second recovery still agrees.
	more := genRecords(9000)[4000:]
	mustIngest(t, rebuilt, more)
	mustIngest(t, control, more)
	rebuilt.Snapshot()
	control.Snapshot()
	if wlog2.Checkpoints() != 1 {
		t.Fatalf("%d checkpoints after the log outgrew the old one, want 1", wlog2.Checkpoints())
	}
	again := newTestEngine(t, Config{Shards: 4})
	replayInto(t, wlog2, again)
	again.Snapshot()
	if !bytes.Equal(genJSONL(t, again.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("replay of the re-checkpointed log differs from the control")
	}
}
