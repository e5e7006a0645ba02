package wal

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files and fuzz seed corpus")

// buildSegment encodes batches — each a list of shard parts — as
// consecutive segment records from sequence 1, the raw bytes a segment
// file would hold. A batch of more than chunk view records spans
// several records, as it does in AppendBatch.
func buildSegment(t testing.TB, chunk int, batches ...[][]record.ViewRecord) []byte {
	t.Helper()
	enc := wire.NewEncoder()
	var data []byte
	seq := uint64(1)
	for _, parts := range batches {
		var err error
		if data, seq, _, err = appendBatch(data, enc, seq, chunk, parts); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

// one is a batch with a single shard part.
func one(recs []record.ViewRecord) [][]record.ViewRecord { return [][]record.ViewRecord{recs} }

const testChunk = 1 << 14

// decodeCount runs DecodeSegment and returns how many records were
// delivered and the torn tail, failing on hard errors.
func decodeCount(t *testing.T, data []byte) (int, *Torn) {
	t.Helper()
	n := 0
	torn, err := DecodeSegment(data, wire.NewDecoder(), func(seq uint64, recs []record.ViewRecord) error {
		n += len(recs)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	return n, torn
}

func TestDecodeSegmentDamageMatrix(t *testing.T) {
	recs := genRecords(30)
	// Every record is a batch of three frames with an empty part among
	// them, the shape AppendBatch writes.
	data := buildSegment(t, testChunk, partition(recs[:10], 3), append(partition(recs[10:20], 2), nil), partition(recs[20:], 3))
	intactN, torn := decodeCount(t, data)
	if torn != nil || intactN != 30 {
		t.Fatalf("intact segment: %d records, torn %v", intactN, torn)
	}
	// The offset of the final record, for prefix assertions.
	var offsets []int64
	off := int64(0)
	for off < int64(len(data)) {
		offsets = append(offsets, off)
		off += recordHeaderBytes + int64(binary.LittleEndian.Uint32(data[off:]))
	}
	lastOff := offsets[len(offsets)-1]

	damage := []struct {
		name   string
		mutate func([]byte) []byte
		reason string
		prefix int // records still delivered
	}{
		{"truncated header", func(b []byte) []byte { return b[:lastOff+3] }, "partial header", 20},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }, "partial body", 20},
		{"corrupt crc", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "crc mismatch", 20},
		{"oversized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[lastOff:], uint32(MaxRecordBytes+1))
			return b
		}, "oversized length", 20},
		{"zeroed tail", func(b []byte) []byte {
			for i := lastOff; i < int64(len(b)); i++ {
				b[i] = 0
			}
			return b
		}, "zero length", 20},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			b := d.mutate(append([]byte(nil), data...))
			n, torn := decodeCount(t, b)
			if torn == nil {
				t.Fatal("damage not detected")
			}
			if torn.Reason != d.reason {
				t.Fatalf("reason = %q, want %q", torn.Reason, d.reason)
			}
			if torn.Off != lastOff {
				t.Fatalf("torn offset = %d, want %d", torn.Off, lastOff)
			}
			if n != d.prefix {
				t.Fatalf("delivered %d records before the tear, want %d", n, d.prefix)
			}
		})
	}
}

func TestDecodeSegmentCRCValidCorruptionIsHardError(t *testing.T) {
	// A record whose CRC verifies but whose body does not parse cannot
	// be a torn write — the appender never produced it — so it must be
	// a hard error, not a clean stop.
	body := bytes.Repeat([]byte{0x80}, 12) // unterminated varint: bad sequence
	data := make([]byte, recordHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(data, uint32(len(body)))
	binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(body, castagnoli))
	copy(data[recordHeaderBytes:], body)
	if _, err := DecodeSegment(data, wire.NewDecoder(), nil); err == nil {
		t.Fatal("bad sequence varint under a valid CRC was not a hard error")
	}

	// Same for a valid sequence followed by an undecodable frame.
	body = binary.AppendUvarint(nil, 7)
	body = append(body, []byte{4, 0, 0, 0, 'X', 'X', 9, 9}...)
	data = make([]byte, recordHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(data, uint32(len(body)))
	binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(body, castagnoli))
	copy(data[recordHeaderBytes:], body)
	if _, err := DecodeSegment(data, wire.NewDecoder(), nil); err == nil {
		t.Fatal("undecodable frame under a valid CRC was not a hard error")
	}
}

// TestGoldenSegment pins the on-disk record format: the checked-in
// segment must keep decoding, and today's encoder must keep producing
// exactly those bytes. If this fails, the format changed — which needs
// a version bump and migration thinking, not a golden refresh.
//
// golden.segment holds two one-part batches and is the file the
// per-shard log wrote: one record layout, before and after the single
// stream. golden_batch.segment pins what the stream adds on top of it —
// a record of three frames, and a batch too large for one record
// (chunk 4) continued under the next sequence.
func TestGoldenSegment(t *testing.T) {
	recs := genRecords(12)
	for _, g := range []struct {
		file    string
		data    []byte
		entries int
	}{
		{"golden.segment", buildSegment(t, testChunk, one(recs[:5]), one(recs[5:])), 2},
		{"golden_batch.segment", buildSegment(t, 4, partition(recs[:4], 3), partition(recs[4:], 4)), 3},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(g.data, want) {
			t.Fatalf("%s: segment encoding changed: %d bytes now vs %d golden", g.file, len(g.data), len(want))
		}
		var seqs []uint64
		n := 0
		torn, err := DecodeSegment(want, wire.NewDecoder(), func(seq uint64, recs []record.ViewRecord) error {
			seqs = append(seqs, seq)
			n += len(recs)
			return nil
		})
		if err != nil || torn != nil || n != 12 {
			t.Fatalf("%s decodes to %d records, torn %v, err %v", g.file, n, torn, err)
		}
		if len(seqs) != g.entries || seqs[0] != 1 || seqs[len(seqs)-1] != uint64(g.entries) {
			t.Fatalf("%s holds sequences %v, want 1..%d", g.file, seqs, g.entries)
		}
	}
}

// TestAppendFramesWritesTheGoldenBytes: a log handed Encoder.AppendFrame's
// output as frames writes golden.segment byte for byte. The record a
// binary POST's frames make is the record AppendBatch makes of the
// same records, so a log holds one format whichever append wrote it.
func TestAppendFramesWritesTheGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.segment"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	enc := wire.NewEncoder()
	recs := genRecords(12)
	for _, batch := range [][]record.ViewRecord{recs[:5], recs[5:]} {
		frames, err := enc.AppendFrame(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendFrames(frames, int64(len(batch)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFrames wrote %d bytes that are not golden.segment's %d", len(got), len(want))
	}
}

// TestAppendFramesSplitsOnlyPastMaxBody: frames go into one record,
// byte for byte, until the next would take its body past the cap; the
// record then ends on a frame boundary and the next sequence takes the
// rest. A stream that does not end on a frame boundary, or a frame no
// record body can hold, appends nothing.
func TestAppendFramesSplitsOnlyPastMaxBody(t *testing.T) {
	enc := wire.NewEncoder()
	recs := genRecords(40)
	var frames []byte
	var sizes []int
	for lo := 0; lo < len(recs); lo += 10 {
		n := len(frames)
		var err error
		if frames, err = enc.AppendFrame(frames, recs[lo:lo+10]); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(frames)-n)
	}
	// Room for a one-byte sequence and two frames, never three.
	maxBody := 1 + max(sizes[0]+sizes[1], sizes[2]+sizes[3])
	if 1+sizes[0]+sizes[1]+sizes[2] <= maxBody {
		t.Fatalf("frame sizes %v leave room for three frames in a record", sizes)
	}
	data, next, err := appendFrames(nil, 1, maxBody, frames)
	if err != nil || next != 3 {
		t.Fatalf("appendFrames: next sequence %d, err %v; want two records", next, err)
	}
	var logged []byte
	if torn, err := scanSegment(data, func(seq uint64, _ int64, body []byte) error {
		if len(body) > maxBody-1 {
			return fmt.Errorf("record %d carries %d frame bytes past a %d-byte body cap", seq, len(body), maxBody)
		}
		logged = append(logged, body...)
		return nil
	}); err != nil || torn != nil {
		t.Fatalf("scan: torn %v, err %v", torn, err)
	}
	if !bytes.Equal(logged, frames) {
		t.Fatal("the records' frames are not the stream handed over")
	}
	if n, torn := decodeCount(t, data); n != len(recs) || torn != nil {
		t.Fatalf("the records decode to %d view records, torn %v", n, torn)
	}
	if got, _, err := appendFrames([]byte("kept"), 1, sizes[0], frames[sizes[0]:]); err == nil || string(got) != "kept" {
		t.Fatalf("a frame larger than the body cap: err %v, dst %q", err, got)
	}

	dir := t.TempDir()
	l := openLog(t, dir, Options{})
	for _, bad := range [][]byte{frames[:len(frames)-1], frames[:len(frames)-sizes[3]+2], append(frames[:len(frames):len(frames)], 7)} {
		if err := l.AppendFrames(bad, int64(len(recs)), 0); err == nil {
			t.Fatalf("AppendFrames took %d bytes that do not end on a frame boundary", len(bad))
		}
	}
	if l.Bounds()[0] != 0 || len(segmentFiles(t, dir)) != 0 {
		t.Fatalf("refused appends left bounds %v and segments %v", l.Bounds(), segmentFiles(t, dir))
	}
}

// TestGoldenCorruptSegment is the corrupt-segment golden test: a
// checked-in segment with a damaged final record must decode to
// exactly the undamaged prefix with the pinned torn classification.
func TestGoldenCorruptSegment(t *testing.T) {
	path := filepath.Join("testdata", "corrupt.segment")
	if *update {
		recs := genRecords(12)
		data := buildSegment(t, testChunk, one(recs[:5]), one(recs[5:]))
		data[len(data)-3] ^= 0x40 // CRC-breaking flip inside the final body
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	n, torn := decodeCount(t, data)
	if torn == nil || torn.Reason != "crc mismatch" {
		t.Fatalf("torn = %+v, want crc mismatch", torn)
	}
	if n != 5 {
		t.Fatalf("delivered %d records from the corrupt segment, want the 5-record prefix", n)
	}
}

func TestTornTailRecoveredOnOpen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"truncated write", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openLog(t, dir, Options{})
			recs := genRecords(300)
			for lo := 0; lo < 300; lo += 100 {
				if err := l.AppendBatch(partition(recs[lo:lo+100], 4), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs := segmentFiles(t, dir)
			if len(segs) != 1 {
				t.Fatalf("segments = %v", segs)
			}
			tc.mutate(t, segs[0])

			// Open recovers the tail: the damaged final record is
			// truncated away, counted, and the log is immediately
			// appendable again at the right sequence.
			reg := obs.NewRegistry()
			tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 16)
			l2 := openLog(t, dir, Options{Metrics: reg, Trace: tr})
			if n := reg.Snapshot().Counters["wal_torn_tail_total"]; n != 1 {
				t.Fatalf("wal_torn_tail_total = %d, want 1", n)
			}
			if got := l2.Bounds(); got[0] != 2 {
				t.Fatalf("bounds after torn-tail recovery = %v, want [2]", got)
			}
			info, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			got, stats := replayAll(t, l2)
			if stats.TornTails != 0 {
				t.Fatalf("replay saw a torn tail Open should have truncated: %+v", stats)
			}
			// The first replay's span says where Open cut the tail.
			if a := lastReplaySpan(t, tr); a["torn_offset"] != info.Size() || a["torn_last_seq"] != 2 || a["torn_tails"] != 0 {
				t.Fatalf("wal.replay attrs after Open cut the tail at %d: %v", info.Size(), a)
			}
			if !bytes.Equal(canonBytes(t, got), canonBytes(t, recs[:200])) {
				t.Fatal("replay after recovery is not the durable prefix")
			}
			if err := l2.AppendBatch(partition(recs[200:], 4), 0); err != nil {
				t.Fatal(err)
			}
			got2, _ := replayAll(t, l2)
			if !bytes.Equal(canonBytes(t, got2), canonBytes(t, recs)) {
				t.Fatal("append after torn-tail recovery lost records")
			}
			if a := lastReplaySpan(t, tr); a["torn_tails"] != 0 || a["torn_offset"] != 0 || a["torn_last_seq"] != 0 {
				t.Fatalf("a later replay over an intact log reports a torn tail: %v", a)
			}
			// A torn record the replay itself stops at is on its span too.
			segs = segmentFiles(t, dir)
			final := segs[len(segs)-1]
			info, err = os.Stat(final)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{9, 0, 0}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, stats := replayAll(t, l2); stats.TornTails != 1 {
				t.Fatalf("replay over a half header: %+v", stats)
			}
			if a := lastReplaySpan(t, tr); a["torn_tails"] != 1 || a["torn_offset"] != info.Size() || a["torn_last_seq"] != 3 {
				t.Fatalf("wal.replay attrs after stopping at %d: %v", info.Size(), a)
			}
		})
	}
}

func TestReplayCorruptClosedSegmentIsHardError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(data []byte) []byte
	}{
		{"corrupt crc", func(data []byte) []byte { data[len(data)-3] ^= 0x40; return data }},
		// Cut at a record boundary nothing is torn, but the records the
		// next segment's name vouches for are missing.
		{"records missing", func(data []byte) []byte { return data[:0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Tiny segments: three appends land in separate files.
			l := openLog(t, dir, Options{segmentBytes: 1})
			recs := genRecords(300)
			for lo := 0; lo < 300; lo += 100 {
				if err := l.AppendBatch(partition(recs[lo:lo+100], 4), 0); err != nil {
					t.Fatal(err)
				}
			}
			segs := segmentFiles(t, dir)
			if len(segs) < 2 {
				t.Fatalf("wanted multiple segments, got %v", segs)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[0], tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			// Damage below the tail cannot be a crashed append: replay
			// must refuse rather than silently drop interior records.
			if _, err := l.Replay(func([]record.ViewRecord) error { return nil }, 0); err == nil {
				t.Fatal("replay accepted a damaged non-final segment")
			}
		})
	}
}

// writeSeedCorpus regenerates the checked-in fuzz seed corpus when the
// golden -update flag is set; see FuzzDecodeSegment.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSegment")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"seed-truncated-record": truncatedSeed(t),
		"seed-corrupt-crc":      corruptCRCSeed(t),
		"seed-max-seq-varint":   maxSeqSeed(t),
	} {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func truncatedSeed(t testing.TB) []byte {
	data := buildSegment(t, testChunk, one(genRecords(6)[:3]), one(genRecords(6)[3:]))
	return data[:len(data)-7]
}

func corruptCRCSeed(t testing.TB) []byte {
	data := buildSegment(t, testChunk, one(genRecords(4)))
	data[len(data)-2] ^= 0xff
	return data
}

// maxSeqSeed is a well-formed record whose sequence varint is
// MaxInt64 — the boundary the decoder must take without overflow.
func maxSeqSeed(t testing.TB) []byte {
	enc := wire.NewEncoder()
	var body []byte
	body = binary.AppendUvarint(body, uint64(1)<<63-1)
	var err error
	if body, err = enc.AppendFrame(body, genRecords(2)); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, recordHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(data, uint32(len(body)))
	binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(body, castagnoli))
	copy(data[recordHeaderBytes:], body)
	return data
}

// lastReplaySpan returns the attrs of tr's latest wal.replay span.
func lastReplaySpan(t *testing.T, tr *obs.Tracer) map[string]int64 {
	t.Helper()
	var attrs map[string]int64
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "wal.replay" {
			attrs = sp.Attrs
		}
	}
	if attrs == nil {
		t.Fatal("no wal.replay span")
	}
	return attrs
}
