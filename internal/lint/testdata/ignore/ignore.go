// Package ignore exercises //lint:ignore suppression: a well-formed
// directive (analyzer or "all", plus a non-empty reason) on the
// finding's line or the line above silences it; a directive without a
// reason is inert and is itself reported as an "ignore" finding; a
// directive naming analyzer A never silences analyzer B, even on the
// same line; a directive naming no analyzer of the suite — a typo, or
// one retired — is inert and reported too.
package ignore

import "time"

func ownLineDirective() time.Time {
	//lint:ignore nondeterminism fixture: operational logging wants the wall clock
	return time.Now()
}

func trailingDirective() time.Time {
	return time.Now() //lint:ignore all fixture: trailing suppression form
}

func missingReason() time.Time {
	//lint:ignore nondeterminism // want ignore "missing its mandatory reason"
	return time.Now() // want nondeterminism "time.Now reads the wall clock"
}

func wrongAnalyzer() time.Time {
	//lint:ignore errcheck fixture: directive names a different analyzer
	return time.Now() // want nondeterminism "time.Now reads the wall clock"
}

// sameLineOtherAnalyzer pins that suppression is per-analyzer even in
// the trailing position: the directive silences ctxflow's time.Sleep
// finding but nondeterminism still fires on time.Since, on the very
// same line.
func sameLineOtherAnalyzer(t0 time.Time) {
	time.Sleep(time.Since(t0)) //lint:ignore ctxflow fixture: sleep is the construct under test // want nondeterminism "time.Since reads the wall clock"
}

func unknownAnalyzer() time.Time {
	//lint:ignore nondeterminsm fixture: the analyzer's name is misspelt // want ignore "names .nondeterminsm., which is no analyzer"
	return time.Now() // want nondeterminism "time.Now reads the wall clock"
}

func retiredAnalyzer() time.Time {
	return time.Now() //lint:ignore frozenwrite fixture: retired, so it silences nothing // want nondeterminism "time.Now reads the wall clock" // want ignore "names .frozenwrite."
}
