package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// FuzzDecodeSegment throws arbitrary bytes at scanSegment, the framing
// Open and Replay run over every segment, mirroring wire's
// FuzzDecodeFrame (which fuzzes the frames it hands over). The
// invariants: never panic, hand over records in increasing offset
// order with their frames inside the input, a torn classification
// always points inside the input at a record boundary the scan
// actually reached, and everything before a torn tail is handed over —
// the crash-recovery contract replay is built on.
func FuzzDecodeSegment(f *testing.F) {
	intact := buildSegment(f, testChunk, one(genRecords(9)[:4]), one(genRecords(9)[4:]))
	f.Add(intact)
	f.Add(truncatedSeed(f))
	f.Add(corruptCRCSeed(f))
	f.Add(maxSeqSeed(f))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 40))
	// What AppendBatch writes: several frames to a record, and a batch
	// past the chunk size carried into a second record.
	f.Add(buildSegment(f, 6, partition(genRecords(9), 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var offs []int64
		torn, err := scanSegment(data, func(_ uint64, off int64, frames []byte) error {
			if len(offs) > 0 && off <= offs[len(offs)-1] {
				t.Fatalf("record at offset %d after one at %d", off, offs[len(offs)-1])
			}
			if end := off + recordHeaderBytes + int64(len(frames)); end > int64(len(data)) {
				t.Fatalf("record at offset %d runs to %d, past the input's %d bytes", off, end, len(data))
			}
			offs = append(offs, off)
			return nil
		})
		if err != nil {
			return
		}
		if torn != nil {
			if torn.off < 0 || torn.off > int64(len(data)) {
				t.Fatalf("torn offset %d outside input of %d bytes", torn.off, len(data))
			}
			// Re-scanning the intact prefix must hand over the same
			// records and report no tear: the tear was the tail.
			n2 := 0
			torn2, err2 := scanSegment(data[:torn.off], func(uint64, int64, []byte) error {
				n2++
				return nil
			})
			if err2 != nil || torn2 != nil || n2 != len(offs) {
				t.Fatalf("prefix rescan: %d records (want %d), torn %v, err %v", n2, len(offs), torn2, err2)
			}
		}
	})
}

// FuzzAppendFrames holds the log to what the wire decoder accepts —
// the frames a binary POST logs are the ones DecodeAll took, so its
// acceptance set is part of the log format. For any stream DecodeAll
// accepts, AppendFrames of its Frames, a reopen and a Replay give back
// records deep-equal to the admission decode; for any stream it
// rejects, Frames is nil and nothing is appended. Seeded from
// FuzzDecodeFrame's corpus in internal/wire.
func FuzzAppendFrames(f *testing.F) {
	enc := wire.NewEncoder()
	var two []byte
	for _, recs := range [][]record.ViewRecord{genRecords(9), genRecords(40), nil} {
		frame, err := enc.AppendFrame(nil, recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		two = append(two, frame...)
	}
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 'V', 'B', 1, 0})
	f.Add(bytes.Repeat([]byte{0x80}, 40))
	seeds, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", "FuzzDecodeFrame", "*"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("FuzzDecodeFrame's corpus: %v, err %v", seeds, err)
	}
	for _, path := range seeds {
		f.Add(corpusBytes(f, path))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder()
		recs, derr := dec.DecodeAll(bytes.NewReader(data))
		want := append([]record.ViewRecord(nil), recs...)
		dir := t.TempDir()
		l := openLog(t, dir, Options{})
		l.create, l.syncDir = createNoSync, func(string) error { return nil }
		if err := l.AppendFrames(dec.Frames(), int64(len(recs)), 0); err != nil {
			t.Fatalf("AppendFrames of what DecodeAll accepted: %v", err)
		}
		if derr != nil {
			if dec.Frames() != nil || l.Bounds()[0] != 0 || len(segmentFiles(t, dir)) != 0 {
				t.Fatalf("a rejected stream (%v) reached the log", derr)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := replayAll(t, openLog(t, dir, Options{}))
		if len(got) != len(want) {
			t.Fatalf("replay gave %d records, admission decoded %d", len(got), len(want))
		}
		for i := range got {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("record %d:\n replayed %+v\n admitted %+v", i, got[i], want[i])
			}
		}
	})
}

// sameRecord is reflect.DeepEqual with the float fields compared by
// bit pattern, so a NaN the fuzzer wrote equals itself.
func sameRecord(a, b record.ViewRecord) bool {
	for _, f := range []func(*record.ViewRecord) *float64{
		func(r *record.ViewRecord) *float64 { return &r.ViewSec },
		func(r *record.ViewRecord) *float64 { return &r.AvgBitrateKbps },
		func(r *record.ViewRecord) *float64 { return &r.RebufferSec },
		func(r *record.ViewRecord) *float64 { return &r.Weight },
	} {
		if math.Float64bits(*f(&a)) != math.Float64bits(*f(&b)) {
			return false
		}
		*f(&a), *f(&b) = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// corpusBytes reads one []byte input of a native fuzz corpus file.
func corpusBytes(t testing.TB, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// noSync is a segment whose fsync does nothing. FuzzAppendFrames checks
// what the log stores, not that it is durable, and fsyncing the file
// and its directory for every input cut its executions per second by
// more than half.
type noSync struct{ segFile }

func (noSync) Sync() error { return nil }

func createNoSync(path string) (segFile, error) {
	f, err := createSegment(path)
	if err != nil {
		return nil, err
	}
	return noSync{f}, nil
}
