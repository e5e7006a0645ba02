package wal

import (
	"bytes"
	"testing"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// FuzzDecodeSegment throws arbitrary bytes at the segment record
// decoder, mirroring wire's FuzzDecodeFrame. The invariants: never
// panic, never deliver records out of proportion to the input, a torn
// classification always points inside the input at a record boundary
// the scan actually reached, and everything before a torn tail is
// delivered — the crash-recovery contract replay is built on.
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
		delivered := 0
		entries := 0
		torn, err := DecodeSegment(data, wire.NewDecoder(), func(seq uint64, recs []record.ViewRecord) error {
			delivered += len(recs)
			entries++
			return nil
		})
		if err != nil {
			return
		}
		if delivered > len(data) {
			t.Fatalf("delivered %d records from %d input bytes: over-allocation guard failed", delivered, len(data))
		}
		if torn != nil {
			if torn.Off < 0 || torn.Off > int64(len(data)) {
				t.Fatalf("torn offset %d outside input of %d bytes", torn.Off, len(data))
			}
			// Re-scanning the intact prefix must deliver the same
			// entries and report no tear: the tear was the tail.
			n2 := 0
			torn2, err2 := DecodeSegment(data[:torn.Off], wire.NewDecoder(), func(uint64, []record.ViewRecord) error {
				n2++
				return nil
			})
			if err2 != nil || torn2 != nil || n2 != entries {
				t.Fatalf("prefix rescan: %d entries (want %d), torn %v, err %v", n2, entries, torn2, err2)
			}
		}
	})
}
