package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
		Dir:   dir,
		Clock: simclock.NewManual(simclock.StudyStart),
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
	crashed := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart), WAL: wlog})
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
	control := newTestEngine(t, Config{})
	mustIngest(t, control, recs)
	control.Snapshot()

	// Recovery: reopen the directory, replay through Ingest, attach,
	// cut the boot epoch — vmpd's exact boot sequence.
	wlog2 := openTestWAL(t, dir)
	rebuilt := newTestEngine(t, Config{})
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

// partition splits a batch round-robin into n parts, the shape the
// partitioned engine before this one handed AppendBatch. Any split
// does: the log keeps a batch's parts together as one record, a frame
// a part.
func partition(recs []telemetry.ViewRecord, n int) [][]telemetry.ViewRecord {
	parts := make([][]telemetry.ViewRecord, n)
	for i := range recs {
		parts[i%n] = append(parts[i%n], recs[i])
	}
	return parts
}

// TestWALWrittenInPartsRecovers is the upgrade pin: a directory written
// by the partitioned engine — eight frames to a record, a checkpoint
// from its first cut, an acked tail it never cut — boots into the same
// generation as a control that took the records directly, and goes on
// taking appends.
func TestWALWrittenInPartsRecovers(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(2400)

	wlog := openTestWAL(t, dir)
	appendInParts := func(lo, hi int) {
		for ; lo < hi; lo += 400 {
			if err := wlog.AppendBatch(partition(recs[lo:lo+400], 8), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendInParts(0, 1200)
	cut := append([]telemetry.ViewRecord(nil), recs[:1200]...)
	telemetry.CanonicalSort(cut)
	if err := wlog.Commit(1, cut, wlog.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	appendInParts(1200, 2000) // acked, never cut
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	control := newTestEngine(t, Config{})
	mustIngest(t, control, recs[:2000])
	control.Snapshot()

	wlog2 := openTestWAL(t, dir)
	rebuilt := newTestEngine(t, Config{})
	calls := 0
	if _, err := wlog2.Replay(func(batch []telemetry.ViewRecord) error {
		calls++
		mustIngest(t, rebuilt, batch)
		return nil
	}, 0); err != nil {
		t.Fatal(err)
	}
	// One checkpoint frame (1200 < 8192 records), then each acked batch
	// whole, however many frames it was written in.
	if calls != 1+2 {
		t.Fatalf("replay made %d deliveries, want the checkpoint and 2 whole batches", calls)
	}
	rebuilt.AttachWAL(wlog2)
	rebuilt.Snapshot()
	if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("generation recovered from a log written in parts differs from the control")
	}
	mustIngest(t, rebuilt, recs[2000:])
	mustIngest(t, control, recs[2000:])
	if !bytes.Equal(genJSONL(t, rebuilt.Snapshot()), genJSONL(t, control.Snapshot())) {
		t.Fatal("generations differ after appending to the recovered log")
	}
	rebuilt.AttachWAL(nil)
}

// TestGoldenMultiFrameSegmentRecovers boots over the checked-in segment
// whose records hold three and four frames (internal/wal's
// golden_batch.segment: bytes written before the engine stopped
// partitioning, not by today's encoder).
func TestGoldenMultiFrameSegmentRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "golden_batch.segment"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The control decodes the records by hand, not through the log: a
	// u32 length, a u32 CRC, then the body — a uvarint sequence and the
	// record's wire frames.
	control := newTestEngine(t, Config{})
	for rest := data; len(rest) > 0; {
		end := 8 + int(binary.LittleEndian.Uint32(rest))
		_, sn := binary.Uvarint(rest[8:end])
		recs, err := wire.NewDecoder().DecodeAll(bytes.NewReader(rest[8+sn : end]))
		if err != nil {
			t.Fatal(err)
		}
		mustIngest(t, control, recs)
		rest = rest[end:]
	}
	control.Snapshot()

	rebuilt := newTestEngine(t, Config{})
	replayInto(t, openTestWAL(t, dir), rebuilt)
	rebuilt.Snapshot()
	if n := rebuilt.Generation().Records; n != 12 {
		t.Fatalf("recovered %d records from the golden segment, want 12", n)
	}
	if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("generation recovered from the golden segment differs from the control")
	}
}

// partsWAL records the parts vector of every AppendBatch.
type partsWAL struct {
	calls [][][]telemetry.ViewRecord
}

func (w *partsWAL) AppendBatch(parts [][]telemetry.ViewRecord, _ obs.SpanID) error {
	held := make([][]telemetry.ViewRecord, len(parts))
	for i, p := range parts {
		held[i] = append([]telemetry.ViewRecord(nil), p...)
	}
	w.calls = append(w.calls, held)
	return nil
}
func (w *partsWAL) Bounds() []uint64 { return []uint64{uint64(len(w.calls))} }
func (w *partsWAL) Commit(int64, []telemetry.ViewRecord, []uint64, obs.SpanID) error {
	return nil
}

// TestOneFramePerBatch: the engine hands the WAL each admitted batch as
// one part, in arrival order, and so a real log writes one wire frame
// per record.
func TestOneFramePerBatch(t *testing.T) {
	recs := genRecords(1300)
	sizes := []int{500, 1, 299, 500}

	ingestSizes := func(e *Engine) {
		lo := 0
		for _, n := range sizes {
			mustIngest(t, e, recs[lo:lo+n])
			lo += n
		}
	}

	stub := &partsWAL{}
	ingestSizes(newTestEngine(t, Config{WAL: stub}))
	if len(stub.calls) != len(sizes) {
		t.Fatalf("%d appends for %d batches", len(stub.calls), len(sizes))
	}
	lo := 0
	for i, parts := range stub.calls {
		if len(parts) != 1 || !reflect.DeepEqual(parts[0], recs[lo:lo+sizes[i]]) {
			t.Fatalf("batch %d reached the WAL as %d parts, or out of order", i, len(parts))
		}
		lo += sizes[i]
	}

	dir := t.TempDir()
	wlog := openTestWAL(t, dir)
	e := newTestEngine(t, Config{WAL: wlog})
	ingestSizes(e)
	e.AttachWAL(nil)
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-0000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Record: u32 length, u32 crc, then uvarint sequence and frames,
	// each frame a u32 payload length and the payload (DESIGN §11, §10).
	records := 0
	for len(data) > 0 {
		body := data[8 : 8+binary.LittleEndian.Uint32(data)]
		data = data[8+len(body):]
		_, n := binary.Uvarint(body)
		frames := 0
		for body = body[n:]; len(body) > 0; frames++ {
			body = body[4+binary.LittleEndian.Uint32(body):]
		}
		if frames != 1 {
			t.Fatalf("segment record %d holds %d frames, want 1", records, frames)
		}
		records++
	}
	if records != len(sizes) {
		t.Fatalf("%d segment records for %d batches", records, len(sizes))
	}
}

// TestPooledDecoderLogsOnlyItsOwnFrames drives one decoder — the
// server's free list holds no other — through a binary POST, a JSONL
// POST, a corrupt binary POST (400) and a binary POST, with a WAL
// attached. A binary POST's log record is the decoder's Frames, so a
// decoder that kept a stream past its request would log the first
// batch again in the JSONL one's place, or bytes of the refused one.
// The binary records must hold the bytes the client sent, and replay
// must give back exactly the accepted records.
func TestPooledDecoderLogsOnlyItsOwnFrames(t *testing.T) {
	dir := t.TempDir()
	wlog := openTestWAL(t, dir)
	e := newTestEngine(t, Config{WAL: wlog})
	s := NewServer(e)
	oneDecoder(s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/views", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	frames := func(recs ...[]telemetry.ViewRecord) []byte {
		var out []byte
		for _, r := range recs {
			var err error
			if out, err = wire.NewEncoder().AppendFrame(out, r); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	recs := genRecords(700)
	first, last := frames(recs[:150], recs[150:300]), frames(recs[600:])
	var jsonl bytes.Buffer
	if err := telemetry.EncodeJSONL(&jsonl, recs[300:500]); err != nil {
		t.Fatal(err)
	}
	corrupt := frames(recs[500:550], recs[550:600])
	corrupt = corrupt[:len(corrupt)-3] // a good frame, then a cut one
	for i, step := range []struct {
		contentType string
		body        []byte
		status      int
	}{
		{wire.ContentTypeBinary, first, http.StatusAccepted},
		{wire.ContentTypeJSONL, jsonl.Bytes(), http.StatusAccepted},
		{wire.ContentTypeBinary, corrupt, http.StatusBadRequest},
		{wire.ContentTypeBinary, last, http.StatusAccepted},
	} {
		if got := post(step.contentType, step.body); got != step.status {
			t.Fatalf("POST %d: status %d, want %d", i, got, step.status)
		}
	}
	e.AttachWAL(nil)
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	var logged [][]byte
	data, err := os.ReadFile(filepath.Join(dir, "seg-0000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 {
		body := data[8 : 8+binary.LittleEndian.Uint32(data)]
		data = data[8+len(body):]
		_, n := binary.Uvarint(body)
		logged = append(logged, body[n:])
	}
	if len(logged) != 3 || !bytes.Equal(logged[0], first) || !bytes.Equal(logged[2], last) {
		t.Fatalf("the log holds %d records; the binary POSTs' are not the bytes the client sent", len(logged))
	}
	control := newTestEngine(t, Config{})
	mustIngest(t, control, recs[:500])
	mustIngest(t, control, recs[600:])
	control.Snapshot()
	rebuilt := newTestEngine(t, Config{})
	replayInto(t, openTestWAL(t, dir), rebuilt)
	rebuilt.Snapshot()
	if !bytes.Equal(genJSONL(t, rebuilt.Generation()), genJSONL(t, control.Generation())) {
		t.Fatalf("replay recovered %d records, not the %d accepted", rebuilt.Generation().Records, control.Generation().Records)
	}
}

// TestBinaryPostWithoutFrameAppender: a WAL hook with no AppendFrames
// is handed a binary POST as records, through AppendBatch.
func TestBinaryPostWithoutFrameAppender(t *testing.T) {
	stub := &partsWAL{}
	srv := httptest.NewServer(NewServer(newTestEngine(t, Config{WAL: stub})).Handler())
	defer srv.Close()
	recs := genRecords(40)
	if code := postBinary(t, srv.URL, recs); code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	if len(stub.calls) != 1 || len(stub.calls[0]) != 1 || !reflect.DeepEqual(stub.calls[0][0], recs) {
		t.Fatalf("AppendBatch calls %d, want one of the posted records", len(stub.calls))
	}
}

// TestWALReplayIdempotent pins replay idempotence at the engine level:
// replaying the same WAL twice into two fresh engines publishes
// byte-identical generations.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(1200)
	wlog := openTestWAL(t, dir)
	e := newTestEngine(t, Config{WAL: wlog})
	mustIngest(t, e, recs[:700])
	e.Snapshot()                 // commit + truncate: replay must cross the checkpoint
	mustIngest(t, e, recs[700:]) // admitted but uncommitted: the segment tail

	var gens [][]byte
	for i := 0; i < 2; i++ {
		re := newTestEngine(t, Config{})
		replayInto(t, wlog, re)
		re.Snapshot()
		gens = append(gens, genJSONL(t, re.Generation()))
	}
	if !bytes.Equal(gens[0], gens[1]) {
		t.Fatal("double replay published different generations")
	}
	control := newTestEngine(t, Config{})
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
		Clock:   simclock.NewManual(simclock.StudyStart),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	e := newTestEngine(t, Config{Metrics: reg, WAL: wlog})
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
	re := newTestEngine(t, Config{})
	replayInto(t, wlog, re)
	re.Snapshot()
	if !bytes.Equal(genJSONL(t, re.Generation()), genJSONL(t, g2gen(e))) {
		t.Fatal("checkpoint replay does not reconstruct the published generation")
	}
}

func g2gen(e *Engine) *Generation { return e.Generation() }

// errWAL fails every append and every commit, to pin the rejection
// contract.
type errWAL struct{}

func (w *errWAL) AppendBatch([][]telemetry.ViewRecord, obs.SpanID) error {
	return errors.New("disk on fire")
}
func (w *errWAL) Bounds() []uint64 { return make([]uint64, 1) }
func (w *errWAL) Commit(int64, []telemetry.ViewRecord, []uint64, obs.SpanID) error {
	return errors.New("disk on fire")
}

// TestWALAppendErrorRejectsBatchWhole: a WAL append failure must
// reject the batch with nothing enqueued (503 over HTTP, counted), so
// the client's retry cannot duplicate records, and its ingest.batch
// span must say the WAL failed, not that the engine was closed. A
// failed commit is counted too, and ends epoch.checkpoint with error=1.
func TestWALAppendErrorRejectsBatchWhole(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 64)
	e := newTestEngine(t, Config{Metrics: reg, Trace: tr, WAL: &errWAL{}})
	srv := httptest.NewServer(NewServer(e).Handler())
	defer srv.Close()
	if code := postBinary(t, srv.URL, genRecords(100)); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with failing WAL: status %d, want 503", code)
	}
	if n := reg.Snapshot().Counters["live_wal_errors_total"]; n != 1 {
		t.Fatalf("live_wal_errors_total = %d, want 1", n)
	}
	var batches int
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "ingest.batch" {
			continue
		}
		batches++
		if sp.Attrs["wal_error"] != 1 || sp.Attrs["closed"] != 0 {
			t.Fatalf("ingest.batch attrs = %v, want wal_error=1 and no closed", sp.Attrs)
		}
	}
	if batches != 1 {
		t.Fatalf("%d ingest.batch spans, want 1", batches)
	}
	if g := e.Snapshot(); g.Records != 0 {
		t.Fatalf("%d records enqueued despite WAL failure", g.Records)
	}
	if n := reg.Snapshot().Counters["live_wal_errors_total"]; n != 2 {
		t.Fatalf("live_wal_errors_total = %d after a failed commit, want 2", n)
	}
	var ckpts int
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "epoch.checkpoint" {
			ckpts++
			if sp.Attrs["error"] != 1 {
				t.Fatalf("epoch.checkpoint attrs = %v after a failed commit, want error=1", sp.Attrs)
			}
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d epoch.checkpoint spans, want 1", ckpts)
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
		Dir: dir, Clock: simclock.NewManual(simclock.StudyStart), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	crashed := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart), Metrics: reg, WAL: wlog})
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

	control := newTestEngine(t, Config{})
	mustIngest(t, control, recs)
	control.Snapshot()

	wlog2 := openTestWAL(t, dir)
	rebuilt := newTestEngine(t, Config{})
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
	again := newTestEngine(t, Config{})
	replayInto(t, wlog2, again)
	again.Snapshot()
	if !bytes.Equal(genJSONL(t, again.Generation()), genJSONL(t, control.Generation())) {
		t.Fatal("replay of the re-checkpointed log differs from the control")
	}
}

// heapAlloc is the live heap after a full collection (two, so that any
// sync.Pool's victims are gone as well).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRecoveredHeapMatchesLiveBuilt: a daemon that recovers must not
// hold more memory than the one that crashed. A generation's rows share
// their strings, CDN lists and bitrate ladders with the decoders' caches:
// each distinct value is interned once, and every record that holds an
// equal one points at the same copy, which nothing writes. So what a
// row keeps does not depend on the call that decoded it — and replay
// decodes 8,192-record checkpoint frames and then 500-record tail
// batches, where the live daemon decoded 500-record POSTs only. Were a
// row to keep part of a per-call buffer, the recovered generation would
// weigh more (it once weighed twice the live one); interned, the two
// weigh the same.
func TestRecoveredHeapMatchesLiveBuilt(t *testing.T) {
	const n, batch = 30_000, 500
	recs := genRecords(n)
	ladders := [][]int{{400, 800, 1600}, {235, 375, 560, 750, 1050, 1750, 2350}, {3000}, {150, 300, 600, 1200, 2400}}
	for i := range recs {
		recs[i].Bitrates = ladders[i%len(ladders)]
	}
	dir := t.TempDir()

	// The crashed daemon: two thirds posted and cut (a checkpoint), a
	// third posted and never cut (the segment tail), over HTTP so that
	// its rows come out of the decoders production uses.
	liveBuilt := func() *Generation {
		wlog := openTestWAL(t, dir)
		e := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart), WAL: wlog})
		defer e.Close()
		srv := httptest.NewServer(NewServer(e).Handler())
		defer srv.Close()
		post := func(part []telemetry.ViewRecord) {
			for lo := 0; lo < len(part); lo += batch {
				if status := postBinary(t, srv.URL, part[lo:lo+batch]); status != http.StatusAccepted {
					t.Fatalf("POST: %d", status)
				}
			}
		}
		post(recs[:2*n/3])
		e.Snapshot()
		if wlog.Checkpoints() != 1 {
			t.Fatalf("%d checkpoints after the first cut, want 1", wlog.Checkpoints())
		}
		post(recs[2*n/3:])
		e.AttachWAL(nil) // the crash image is what the log holds now
		if err := wlog.Close(); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot()
	}()
	recovered := func() *Generation {
		wlog := openTestWAL(t, dir)
		e := NewEngine(Config{Clock: simclock.NewManual(simclock.StudyStart)})
		defer e.Close()
		replayInto(t, wlog, e)
		return e.Snapshot()
	}()
	if liveBuilt.Records != n || recovered.Records != n {
		t.Fatalf("live-built %d records, recovered %d, want %d", liveBuilt.Records, recovered.Records, n)
	}

	both := heapAlloc()
	runtime.KeepAlive(recovered)
	recovered = nil
	one := heapAlloc()
	runtime.KeepAlive(liveBuilt)
	liveBuilt = nil
	none := heapAlloc()
	recoveredB, liveB := float64(int64(both)-int64(one))/n, float64(int64(one)-int64(none))/n
	t.Logf("heap per record: recovered %.0f B, live-built %.0f B", recoveredB, liveB)
	if recoveredB > 1.10*liveB {
		t.Errorf("a recovered generation holds %.0f B/record, the live-built one %.0f: more than 10%% over", recoveredB, liveB)
	}
}

// newestCheckpoint returns the bytes of the one checkpoint in dir.
func newestCheckpoint(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("checkpoints in %s: %v (err %v), want one", dir, paths, err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedRowCheckpointMatchesFlat: a checkpoint the engine writes
// from a merged generation — rows shared with earlier cuts, handed to
// the WAL by the lazy commit — is byte for byte the one a log writes
// from NewDataset of the same records, at the same epoch and bounds.
func TestSharedRowCheckpointMatchesFlat(t *testing.T) {
	recs := genRecords(4000)
	dir := t.TempDir()
	wlog := openTestWAL(t, dir)
	e := newTestEngine(t, Config{WAL: wlog})
	mustIngest(t, e, recs[:500])
	e.Snapshot() // the log's first commit checkpoints at once
	for lo := 500; lo < len(recs); lo += 500 {
		mustIngest(t, e, recs[lo:lo+500])
	}
	g := e.Snapshot()
	if wlog.Checkpoints() != 2 {
		t.Fatalf("%d checkpoints after the second cut, want 2: the test wants the merged generation written", wlog.Checkpoints())
	}
	shared := newestCheckpoint(t, dir)

	flatDir := t.TempDir()
	flat := openTestWAL(t, flatDir)
	if err := flat.Commit(g.Epoch, rebuild(recs).All(), wlog.Bounds(), 0); err != nil {
		t.Fatal(err)
	}
	if want := newestCheckpoint(t, flatDir); !bytes.Equal(shared, want) {
		t.Fatalf("the merged generation's checkpoint (%d bytes) differs from the flat one's (%d bytes)", len(shared), len(want))
	}
}
