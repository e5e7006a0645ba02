package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRenderHashPinned holds the study's rendered bytes at the
// benchmark's study_offline configuration to the hash recorded before
// the study's record set and its Dataset came to share one row array
// (commit 2f6579a): a change to how records are ordered, attributed or
// ranked that moves any printed digit fails here. A change that means
// to move the figures re-records the constant and says why.
func TestRenderHashPinned(t *testing.T) {
	const want = "9c5c795dc53db28cd8d54dda6b8acd890a50c5676e217e85188db572a1eeb84c"
	h := sha256.New()
	if err := NewStudy(StudyConfig{Seed: 1809, SnapshotStride: 12}).RenderAllParallel(h, 4); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("RenderAllParallel at seed 1809, stride 12 hashes to %s, want %s", got, want)
	}
}

// TestDoubleRunByteIdentical is the repository's reproducibility
// contract, stated end to end: two independent studies built from the
// same seed render the complete figure set byte-for-byte identically,
// on the serial path and on the parallel path — and the two paths
// agree with each other. A failure here means an order- or
// clock-dependent computation got in; the nondet-*, order-* and
// frozen-* rows of docs/mutants.md (with the trace and gauge tests,
// analytics' key-order fold tests and the tests that compare a
// generation with a rebuild) are there to stop one first.
func TestDoubleRunByteIdentical(t *testing.T) {
	cfg := StudyConfig{Seed: 7, SnapshotStride: 12, QoESessions: 20}

	render := func(parallel bool) []byte {
		t.Helper()
		var buf bytes.Buffer
		var err error
		if parallel {
			err = NewStudy(cfg).RenderAllParallel(&buf, 8)
		} else {
			err = NewStudy(cfg).RenderAll(&buf)
		}
		if err != nil {
			t.Fatalf("RenderAll (parallel=%v): %v", parallel, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("RenderAll (parallel=%v): empty output", parallel)
		}
		return buf.Bytes()
	}

	serial1, serial2 := render(false), render(false)
	if !bytes.Equal(serial1, serial2) {
		t.Errorf("two serial runs from seed %d differ (%d vs %d bytes)",
			cfg.Seed, len(serial1), len(serial2))
	}

	parallel1, parallel2 := render(true), render(true)
	if !bytes.Equal(parallel1, parallel2) {
		t.Errorf("two parallel runs from seed %d differ (%d vs %d bytes)",
			cfg.Seed, len(parallel1), len(parallel2))
	}

	if !bytes.Equal(serial1, parallel1) {
		t.Errorf("serial and parallel runs from seed %d differ (%d vs %d bytes)",
			cfg.Seed, len(serial1), len(parallel1))
	}
}
