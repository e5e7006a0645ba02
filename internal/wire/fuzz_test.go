package wire_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"vmp/internal/telemetry"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// FuzzDecodeFrame throws arbitrary bytes at the binary decoder. The
// invariants: never panic, never allocate out of proportion to the
// input (pinned structurally by the record-count-vs-bytes check — a
// decode can never yield more records than input bytes), and any
// stream that does decode must re-encode and re-decode to a stable
// frame: encode(decode(x)) is a fixed point of encode∘decode, byte
// for byte, which is the canonical round-trip contract.
func FuzzDecodeFrame(f *testing.F) {
	small := genRecords(9)
	f.Add(encodeFrames(f, small))
	sorted := genRecords(40)
	telemetry.CanonicalSort(sorted)
	twoFrames, err := wire.NewEncoder().AppendFrame(encodeFrames(f, sorted), small)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(twoFrames)
	// One record whose CDN list alone puts the string table past
	// BulkTable: the corpus runs the path checkpoint frames take.
	cdns := make([]string, wire.BulkTable+1)
	for i := range cdns {
		cdns[i] = strconv.Itoa(i)
	}
	f.Add(encodeFrames(f, []record.ViewRecord{{Publisher: "pub-00", CDNs: cdns}}))
	f.Add(encodeFrames(f, nil))
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 'V', 'B', 1, 0})
	f.Add(bytes.Repeat([]byte{0x80}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder()
		recs, err := dec.DecodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(recs) > len(data) {
			t.Fatalf("decoded %d records from %d input bytes: over-allocation guard failed", len(recs), len(data))
		}
		// Round-trip stability. The original stream may intern in a
		// different order or split frames differently, so compare the
		// re-encoding of the decode result against itself one more
		// trip around, through a reused decoder to exercise scratch
		// reuse on the way.
		f1, err := wire.NewEncoder().AppendFrame(nil, recs)
		if err != nil {
			t.Fatalf("re-encoding %d decoded records: %v", len(recs), err)
		}
		recs2, err := dec.DecodeAll(bytes.NewReader(f1))
		if err != nil {
			t.Fatalf("decoding re-encoded frame: %v", err)
		}
		f2, err := wire.NewEncoder().AppendFrame(nil, recs2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(f1, f2) {
			t.Fatalf("encode∘decode is not a fixed point: %d vs %d bytes", len(f1), len(f2))
		}
	})
}

// FuzzScanJSONL throws arbitrary bytes at the JSONL arm. encoding/json
// is the model (oracleScanJSONL): whichever arm a line takes, the
// records, their order and the bad count must be the model's, and
// nothing panics. Each input is decoded twice on one decoder, so the
// second pass runs over slots, list scratch and intern caches the
// first one dirtied.
func FuzzScanJSONL(f *testing.F) {
	f.Add(jsonlBody(f, canonicalCorpus()[:12]))
	for _, line := range hostileLines {
		f.Add([]byte(line))
	}
	f.Add([]byte(strings.Join(hostileLines[:40], "\n")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= wire.MaxLineBytes {
			t.Skip("the model has no line cap")
		}
		dec := wire.NewDecoder()
		checkAgainstOracle(t, dec, data)
		checkAgainstOracle(t, dec, data)
	})
}
