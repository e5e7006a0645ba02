package testfiles

import (
	"testing"
	"time"
)

// TestRemove drops an error return (errcheck does not apply to test
// files, so that is not reported) and reads the wall clock
// (nondeterminism does, so that is).
func TestRemove(t *testing.T) {
	Remove("/nonexistent")
	if time.Now().IsZero() { // want nondeterminism "time.Now reads the wall clock"
		t.Fatal("zero time")
	}
}
