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

# bench times BenchmarkFullStudy, bench/'s study_offline core.freeze_ms,
# core.figures_ms and core.render_ms together, then
# BenchmarkDatasetGeneration, its core.generate_ms, with allocs/op.
.PHONY: bench
bench:
	$(GO) test -run xxx -bench BenchmarkFullStudy -benchtime 5x .
	$(GO) test -run xxx -bench BenchmarkDatasetGeneration -benchtime 5x -benchmem .

# bench-live times in-process admission, bench/'s live.admit_ms_per_batch.
.PHONY: bench-live
bench-live:
	$(GO) test -run xxx -bench 'BenchmarkLiveIngest$$' -benchmem ./internal/live/

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
# -fuzzminimizetime 100x bounds the minimizing of each new input to 100
# runs: at the default (60 s each) the large seeds of the frame and WAL
# targets spent the whole ten seconds being minimized, and they ran 74
# to 2,763 inputs where they now run 10-56 thousand.
.PHONY: fuzz-wire
fuzz-wire:
	$(GO) test -run xxx -fuzz FuzzScanJSONL -fuzztime 10s -fuzzminimizetime 100x ./internal/wire
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s -fuzzminimizetime 100x ./internal/wire
	$(GO) test -run xxx -fuzz FuzzAppendFrames -fuzztime 10s -fuzzminimizetime 100x ./internal/wal
	$(GO) test -run xxx -fuzz FuzzCanonicalSort -fuzztime 10s -fuzzminimizetime 100x ./internal/telemetry
	$(GO) test -run xxx -fuzz FuzzInferProtocol -fuzztime 10s -fuzzminimizetime 100x ./internal/manifest

# bench-wal times the log's append, one write and one fsync, as an
# encoded one-part batch and as a binary POST's frames (bench/'s
# wal.append_ms_per_batch), then boot replay at one and two cores
# (wal.replay_ms; replay decodes on GOMAXPROCS workers).
.PHONY: bench-wal
bench-wal:
	$(GO) test -run xxx -bench BenchmarkWALAppend -benchmem ./internal/wal/
	$(GO) test -run xxx -bench BenchmarkWALReplay -benchmem -cpu 1,2 ./internal/wal/

# bench-cut sweeps the epoch cut over the generation's size (bench/'s
# live.cut_ms_per_krec): one Engine.Snapshot folding 2 500 new records
# into 50 k, 200 k and 800 k published ones. Then the cut nothing is
# folded into — a first cut, a boot preload, a recovery, an offline
# Study.Dataset(): sort, gather and freeze of the benchmark's 110 k
# records from empty (telemetry.sort_ms and telemetry.freeze_ms), ns
# per record each, at one core and at two.
.PHONY: bench-cut
bench-cut:
	$(GO) test -run xxx -bench BenchmarkEpochCut -benchtime 10x -benchmem ./internal/live/
	$(GO) test -run xxx -bench BenchmarkRebuild -benchtime 20x -benchmem -cpu 1,2 ./internal/telemetry/

# bench-query sweeps the query functions over the generation's size
# (bench/'s live.query_share_ms, query_top_ms and query_window_ms): the
# serving mix (six shares, top publishers, one window) asked of 50 k,
# 200 k and 800 k records, cold — a Dataset nobody has asked before, a
# scan — and warm — the same Dataset asked again, answered from what
# the first asking left on it.
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

# coverage-census runs the shipped workflows from coverage-instrumented
# builds into one GOCOVERDIR and prints every function none of them ran
# (0.0 %). It does not gate. The workflows: TestScenarios (whose vmpd,
# vmpgen, vmpstudy, vmptop and example builds inherit GOFLAGS, and whose
# processes inherit GOCOVERDIR), the two scorecard commands, and
# vmpstudy's csv, -input, -share and -top modes on a vmpgen -stride 24
# file. A SIGKILLed process writes no counters, so what only the crash
# scenarios run reads 0 % here.
.PHONY: coverage-census
coverage-census: export GOFLAGS = -cover -coverpkg=vmp/...
coverage-census:
	@tmp="$$(mktemp -d)" && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/cov" && export GOCOVERDIR="$$tmp/cov" && \
	$(GO) build -o "$$tmp/" ./cmd/vmpstudy ./cmd/vmpgen && \
	$(GO) test -c -o "$$tmp/scenario.test" ./internal/scenario && \
	(cd internal/scenario && "$$tmp/scenario.test" -test.run '^TestScenarios$$' -test.count=1) && \
	"$$tmp/vmpstudy" -scorecard -o "$$tmp/scorecard.md" && \
	"$$tmp/vmpstudy" -figure all -o "$$tmp/full_study_output.txt" && \
	"$$tmp/vmpstudy" -format csv -figure 2b -o "$$tmp/2b.csv" && \
	"$$tmp/vmpgen" -stride 24 -o "$$tmp/views.jsonl" && \
	"$$tmp/vmpstudy" -input "$$tmp/views.jsonl" -o "$$tmp/input.txt" && \
	"$$tmp/vmpstudy" -input "$$tmp/views.jsonl" -share protocol -o "$$tmp/share.txt" && \
	"$$tmp/vmpstudy" -input "$$tmp/views.jsonl" -top 10 -o "$$tmp/top.txt" && \
	n="$$(ls "$$tmp/cov" | wc -l)" && \
	$(GO) tool covdata func -i "$$tmp/cov" | awk -v n="$$n" \
		'$$NF == "0.0%" {print; z++} $$1 == "total" {t = $$NF} END {printf "coverage-census: %d functions at 0.0%%, %s of statements, %d covdata files\n", z, t, n}'

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
