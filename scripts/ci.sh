#!/bin/sh
# ci.sh — run the repository's full verification pipeline end to end.
# Every stage runs even if an earlier one fails, so a single CI pass
# reports all broken stages; the script exits nonzero if any failed.
set -u

cd "$(dirname "$0")/.."

failed=""

stage() {
	name="$1"
	shift
	echo "==> $name"
	if ! "$@"; then
		echo "==> $name FAILED"
		failed="$failed $name"
	fi
}

stage build     make build
# test runs internal/scenario too: vmpd, vmpgen, vmpstudy, vmptop and
# examples/live-pipeline built and run end to end (make smoke and make
# smoke-crash run subsets of it).
stage test      make test
stage fmt-check make fmt-check
stage vet       make vet
stage vet-bench make vet-bench
# census fails on code no shipped workflow runs (docs/census.md).
stage census    make census
stage race      make race
# bench-root runs every benchmark in the module once (bench/ is its own
# module, and bench-quick runs it): a benchmark that still compiles but
# has stopped working fails here, not the next time someone times it.
stage bench-root go test -run '^$' -bench . -benchtime 1x ./...
# mutants re-runs the mutant ledger: every seeded mutant must still fail
# its named test, every retired analyzer on record must keep its three
# rows, and the regenerated docs/mutants.md must match the one checked
# in.
stage mutants   sh -c 'make mutants && git diff --exit-code docs/mutants.md'
# scorecard regenerates docs/scorecard.md and docs/full_study_output.txt
# at default flags: a change that moves a printed digit of the study, or
# a paper-vs-measured check out of its band, shows up as a diff here.
stage scorecard sh -c 'make scorecard && git diff --exit-code docs/scorecard.md docs/full_study_output.txt'
# fuzz-wire searches past the seed corpora `make test` already runs:
# ten seconds each on the JSONL arm (encoding/json is the model), the
# binary frame decoder, the WAL's AppendFrames (the frame decoder is
# the model), CanonicalSort (sort.Slice over CompareRecords is the
# model) and InferProtocol (lowercase-then-compare is). Native
# fuzzing; nothing to download.
stage fuzz-wire make fuzz-wire
# bench/ is a module of its own (vmp/bench, replacing vmp with the
# tree around it), so the root `go test ./...` never reaches it: its
# tests, and one -quick pass of the benchmark with its byte-exact
# answer gate on all four workloads, run here.
stage bench-test make test-bench
stage bench-quick bash bench/run.sh -quick

if [ -n "$failed" ]; then
	echo "ci: failed stages:$failed"
	exit 1
fi
echo "ci: all stages passed"
