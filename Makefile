GO ?= go

# Tier-1 verification: build, full test suite, formatting, vet, the
# benchmark module's own tests, and the race detector across the whole
# module.
.PHONY: verify
verify: build test fmt-check vet vet-bench test-bench race

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

.PHONY: vet
vet:
	$(GO) vet ./...

# bench/ is a module of its own (vmp/bench, replacing vmp with this
# directory), so build, test and vet above never reach it. It compiles
# against live.WAL, wal.Options and the query functions; vetting it
# here — compile and type-check, no run — is what tells a change to
# those that it has stopped the benchmark building.
.PHONY: vet-bench
vet-bench:
	$(GO) vet -C bench ./...

# The benchmark's tests (12 s) hold live.Server to contracts nothing in
# this module checks: its traced handler must match live.Server byte
# for byte, the 429 at a QueueDepth-1 ceiling included.
.PHONY: test-bench
test-bench:
	cd bench && $(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

.PHONY: bench
bench:
	$(GO) test -run xxx -bench BenchmarkFullStudy -benchtime 5x .

.PHONY: bench-live
bench-live:
	$(GO) test -run xxx -bench 'BenchmarkLiveIngest|BenchmarkQueryUnderIngest' -benchmem ./internal/live/

# bench-obs compares ingest throughput with the tracer disabled vs
# enabled vs the full self-measurement plane (sampler + series ring)
# live; the deltas are recorded in BENCH_obs.json. The disabled run
# must stay within a few percent of BENCH_live_ingest.json's baseline —
# instrumentation is supposed to be free until a daemon opts in.
.PHONY: bench-obs
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkLiveIngest|BenchmarkIngestTraced|BenchmarkIngestSampled' -benchmem -benchtime 3s -count 3 ./internal/live/

# bench-wire measures the wire path end to end: the binary codec in
# isolation (encode/decode records/s, allocs), the JSONL scan beside
# it (warm decoder in internal/wire, a decoder per call in
# internal/telemetry), and the four HTTP loopback ingest variants
# (jsonl/binary × plain/gzip). The headline numbers live in
# BENCH_live_ingest.json; the binary HTTP path must stay within 2× of
# BenchmarkLiveIngest's in-process admission rate.
.PHONY: bench-wire
bench-wire:
	$(GO) test -run xxx -bench 'BenchmarkWireEncode|BenchmarkWireDecode|BenchmarkDecoderScanJSONL' -benchmem ./internal/wire/
	$(GO) test -run xxx -bench BenchmarkScanJSONL -benchmem ./internal/telemetry/
	$(GO) test -run xxx -bench BenchmarkHTTPIngest -benchmem ./internal/live/

# fuzz-wire gives each wire decoder ten seconds of native fuzzing: the
# JSONL arm against encoding/json as the model, the frame decoder
# against its round-trip fixed point, and the WAL's AppendFrames
# against the frame decoder (whatever DecodeAll accepts must replay
# deep-equal from the log, whatever it rejects must append nothing) —
# and ten each to the two functions every record of an epoch cut goes
# through, held to the bodies they replaced: CanonicalSort against
# sort.Slice over CompareRecords, InferProtocol against
# lowercase-then-compare. The seed corpora already run under `go test`;
# this is the search beyond them (scripts/ci.sh, not `make verify`).
.PHONY: fuzz-wire
fuzz-wire:
	$(GO) test -run xxx -fuzz FuzzScanJSONL -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzAppendFrames -fuzztime 10s ./internal/wal
	$(GO) test -run xxx -fuzz FuzzCanonicalSort -fuzztime 10s ./internal/telemetry
	$(GO) test -run xxx -fuzz FuzzInferProtocol -fuzztime 10s ./internal/manifest

# bench-wal measures the durability tax: WAL-backed append throughput
# under each fsync policy (batch, interval, off), boot replay records/s
# at one and two cores (replay decodes on GOMAXPROCS workers), and the
# end-to-end HTTP ingest rate with the WAL attached, beside the same
# binary POSTs with no WAL (BenchmarkHTTPIngestBinary) so each policy's
# share of it comes from one command.
# The numbers live in BENCH_wal.json; group-commit (interval) must
# sustain at least half of BENCH_live_ingest.json's binary HTTP rate,
# and fsync=off must be within noise of running without a WAL at all.
.PHONY: bench-wal
bench-wal:
	$(GO) test -run xxx -bench BenchmarkWALAppend -benchmem ./internal/wal/
	$(GO) test -run xxx -bench BenchmarkWALReplay -benchmem -cpu 1,2 ./internal/wal/
	$(GO) test -run xxx -bench 'BenchmarkHTTPIngest(Binary|WAL.*)$$' -benchmem ./internal/live/

# bench-cut is the generation-size sweep for the epoch cut: one
# Engine.Snapshot folding 2 500 new records into 50 k, 200 k and 800 k
# published ones. Only the row copy may grow with the generation; the
# sort, the interning and (bench-wal's business) the checkpoint follow
# the delta. Then the cut nothing is folded into — a first cut, a boot
# preload, a recovery, an offline Study.Dataset(): sort and freeze of
# the benchmark's 110 k records from empty, ns per record each.
# DESIGN.md §8 records both.
.PHONY: bench-cut
bench-cut:
	$(GO) test -run xxx -bench BenchmarkEpochCut -benchtime 10x -benchmem ./internal/live/
	$(GO) test -run xxx -bench BenchmarkRebuild -benchtime 20x -benchmem ./internal/telemetry/

# bench-query is the generation-size sweep for the query functions: the
# serving mix (six shares, top publishers, one window) asked of 50 k,
# 200 k and 800 k records. cold — a Dataset nobody has asked before —
# is a scan and grows with the generation; warm — the same Dataset
# asked again — is answered from what the first asking left on it and
# must be flat. DESIGN.md §8 records the sweep.
.PHONY: bench-query
bench-query:
	$(GO) test -run xxx -bench 'BenchmarkQuery$$' -benchmem ./internal/live/

# mutants runs the mutant ledger (cmd/vmpmutants, ~4 min): every seeded
# mutant under testdata/mutants/ is applied through an overlay — the
# tree is never written — and must fail its named test under
# `go test -overlay -json`, and every retired analyzer on record must
# keep at least three rows. Each row's outcome is appended to the
# git-ignored .mutants/collected.jsonl; docs/mutants.md is regenerated
# from the rows (scripts/ci.sh then requires it unchanged).
.PHONY: mutants
mutants:
	$(GO) run ./cmd/vmpmutants

# scorecard regenerates the study's two committed reference outputs at
# default flags: docs/scorecard.md, the banded paper-vs-measured checks
# (vmpstudy exits non-zero if one fails), and docs/full_study_output.txt,
# every figure. scripts/ci.sh then requires both unchanged.
.PHONY: scorecard
scorecard:
	$(GO) run ./cmd/vmpstudy -scorecard -o docs/scorecard.md
	$(GO) run ./cmd/vmpstudy -figure all -o docs/full_study_output.txt

# smoke runs the live-plane scenarios of internal/scenario (which
# `make test` runs too): vmpd ingests a vmpgen slice over HTTP as JSONL
# and as binary+gzip, and a shuffled binary drive in process, and must
# answer queries byte-identically to vmpstudy computing them offline
# from what it holds; a vmpd -load/-dump round trip must lose and change
# nothing; and examples/live-pipeline must print what it always has.
.PHONY: smoke
smoke:
	$(GO) test -count=1 -run 'TestScenarios/^(jsonl|binary_gzip|shuffled_binary|load_dump|live_pipeline_example)$$' ./internal/scenario

# smoke-crash runs the crash scenarios: a WAL-backed vmpd is killed -9
# after a fully acked stream and mid-stream, and recovery must hold every
# acked record, nothing unsent, and answer as offline vmpstudy over what
# it recovered; a -load onto a WAL that replays records must be refused.
.PHONY: smoke-crash
smoke-crash:
	$(GO) test -count=1 -run 'TestScenarios/^(kill_after_stream|kill_mid_stream|load_refused_on_a_replayed_wal)$$' ./internal/scenario

# loc prints Go line counts per package directory — non-test and test
# files in separate columns — for the root package, internal/*, cmd/*
# and examples/*: the one source for the line counts ROADMAP and the
# simplicity PRs quote. Raw lines (comments and blanks included),
# testdata skipped.
.PHONY: loc
loc:
	@printf '%-30s %9s %9s\n' package non-test test; \
	for d in . $$(find internal cmd examples -type d ! -path '*/testdata*' | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs -r cat | wc -l); \
		t=$$(find $$d -maxdepth 1 -name '*_test.go' | xargs -r cat | wc -l); \
		if [ $$((n + t)) -gt 0 ]; then printf '%-30s %9d %9d\n' $$d $$n $$t; N=$$((N + n)); T=$$((T + t)); fi; \
	done; \
	printf '%-30s %9d %9d\n' total $$N $$T

# census fails when a non-test package under internal/ is imported by
# no command, no example and not the benchmark module: code outside
# the shipped roots backs nothing the study or the serving plane runs,
# and goes (tests alone do not keep a package alive).
.PHONY: census
census:
	@roots="$$( { $(GO) list -deps ./cmd/... ./examples/... && $(GO) list -C bench -deps ./...; } | sort -u)" || exit 1; \
	orphans=""; \
	for p in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do \
		echo "$$roots" | grep -qxF "$$p" || orphans="$$orphans $$p"; \
	done; \
	if [ -n "$$orphans" ]; then \
		echo "census: no command, example or bench/ imports:"; \
		for p in $$orphans; do echo "  $$p"; done; \
		exit 1; \
	fi
