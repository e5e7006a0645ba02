#!/bin/sh
# pairs.sh — paired runs of the benchmark: a base revision against this
# checkout, alternating, so that both arms meet the same drift of the
# machine.
#
#   scripts/pairs.sh <base-ref> [-n N] [-workload W]
#
# <base-ref> is exported (git archive) into a directory under $TMPDIR;
# the change arm is this checkout as it stands, uncommitted edits
# included. Each arm first makes one discarded warm-up run of every
# workload (the first run of a series reads slow). Then, for each of
# N pairs (default 5) and each workload (W, or every workload
# BENCHMARK.json names), `bash bench/run.sh -workload W` runs once in
# each tree, in an order drawn from a generator seeded with the pair's
# number. Everything lands in .pairs/<base>-vs-<head>[-<W>]/:
#
#   collected.jsonl  one row per run (its exit code, operations
#                    attempted and failed) and one per run and metric
#   analysis.json    per workload and metric: both arms' medians (and
#                    wall medians for timed metrics) and the per-pair
#                    sign count; every failed run; -compare's verdict
#   analysis.md      the same as tables, with -compare's output
#   results/<arm>/   the result files, one per run; logs/ their output
#
# A run that exits non-zero is listed as failed, with its workload and
# exit code, and its pair counts for no sign; it is never dropped. Test
# the harness with an A/A run: scripts/pairs.sh HEAD -n 2.
set -eu

usage() {
	echo "usage: scripts/pairs.sh <base-ref> [-n N] [-workload W]" >&2
	exit 2
}

cd "$(dirname "$0")/.."
root="$(pwd)"
[ $# -ge 1 ] || usage
base_ref="$1"
shift
n=5
only=""
while [ $# -gt 0 ]; do
	case "$1" in
	-n)
		[ $# -ge 2 ] || usage
		n="$2"
		shift 2
		;;
	-workload)
		[ $# -ge 2 ] || usage
		only="$2"
		shift 2
		;;
	*) usage ;;
	esac
done
case "$n" in '' | *[!0-9]*) usage ;; esac
[ "$n" -ge 1 ] || usage
command -v jq >/dev/null || {
	echo "pairs: jq is needed to read the result files" >&2
	exit 2
}
base="$(git rev-parse --verify --quiet "$base_ref^{commit}")" || {
	echo "pairs: $base_ref is not a commit" >&2
	exit 2
}
workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"
if [ -n "$only" ]; then
	echo "$workloads" | grep -qx "$only" || {
		echo "pairs: no workload $only; BENCHMARK.json names: $(echo $workloads)" >&2
		exit 2
	}
	workloads="$only"
fi

head="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	head="$head+edits"
fi
out="$root/.pairs/$(git rev-parse --short "$base")-vs-$head${only:+-$only}"
rm -rf "$out"
mkdir -p "$out/logs" "$out/results/base" "$out/results/change"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# run ARM PAIR WORKLOAD: one bench run in the arm's tree. A warm-up
# (pair 0) is logged and otherwise forgotten.
run() {
	arm="$1" pair="$2" wl="$3"
	tree="$root"
	[ "$arm" = base ] && tree="$tmp/base"
	dir="$tmp/out-$arm-$pair-$wl"
	log="$out/logs/$arm-pair$pair-$wl.log"
	code=0
	(cd "$tree" && bash bench/run.sh -workload "$wl" -out "$dir") >"$log" 2>&1 || code=$?
	echo "pairs: pair $pair $arm $wl: exit $code"
	[ "$pair" -eq 0 ] && return 0
	set -- "$dir/$wl"-seed*-trace0.json
	file="$1"
	if [ "$code" -ne 0 ] || [ ! -f "$file" ]; then
		jq -cn --arg arm "$arm" --argjson pair "$pair" --arg wl "$wl" --argjson code "$code" \
			'{kind: "run", pair: $pair, arm: $arm, workload: $wl, exit: $code, failed_run: true}' >>"$out/collected.jsonl"
		return 0
	fi
	cp "$file" "$out/results/$arm/$wl-pair$pair.json"
	jq -c --arg arm "$arm" --argjson pair "$pair" --arg wl "$wl" --argjson code "$code" '
		{kind: "run", pair: $pair, arm: $arm, workload: $wl, exit: $code, failed_run: false,
		 attempted: .attempted, failed: .failed, correct: .correct},
		(.metrics | to_entries[] | {kind: "metric", pair: $pair, arm: $arm, workload: $wl,
		 metric: .key, value: .value.value, wall: .value.wall})' "$file" >>"$out/collected.jsonl"
}

for arm in base change; do
	for wl in $workloads; do
		run "$arm" 0 "$wl"
	done
done
pair=1
while [ "$pair" -le "$n" ]; do
	first=base second=change
	if [ "$(awk -v s="$pair" 'BEGIN { srand(s); print (rand() < 0.5) }')" = 1 ]; then
		first=change second=base
	fi
	for wl in $workloads; do
		run "$first" "$pair" "$wl"
		run "$second" "$pair" "$wl"
	done
	pair=$((pair + 1))
done

code=0
bash bench/run.sh -compare "$out/results/base" "$out/results/change" >"$out/compare.txt" 2>&1 || code=$?

jq -s --slurpfile bench BENCHMARK.json --arg base "$base" --arg head "$head" --argjson n "$n" \
	--rawfile compare "$out/compare.txt" --argjson compare_exit "$code" '
	def median: sort | if length == 0 then null
		elif length % 2 == 1 then .[(length - 1) / 2]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	(($bench[0].end_to_end + $bench[0].per_layer) | map({key: .name, value: .better}) | from_entries) as $better
	| ($bench[0].end_to_end | map(.name)) as $e2e
	| {
		base: $base, change: $head, pairs: $n,
		runs: map(select(.kind == "run")) | length,
		failed_runs: map(select(.kind == "run" and (.failed_run or .failed > 0))
			| {pair, arm, workload, exit, failed}),
		metrics: (map(select(.kind == "metric")) | group_by([.workload, .metric]) | map(
			. as $g
			| ($better[$g[0].metric] // "lower") as $dir
			| ([$g[] | select(.arm == "base")]) as $a
			| ([$g[] | select(.arm == "change")]) as $b
			| ([$a[] as $x | $b[] | select(.pair == $x.pair) | {base: $x.value, change: .value}]) as $pp
			| {
				workload: $g[0].workload, metric: $g[0].metric, better: $dir,
				end_to_end: ($e2e | any(. == $g[0].metric)),
				base_median: ([$a[].value] | median), change_median: ([$b[].value] | median),
				base_wall_median: ([$a[].wall | select(. != null)] | median),
				change_wall_median: ([$b[].wall | select(. != null)] | median),
				pairs: ($pp | length),
				change_better: ([$pp[] | select(if $dir == "higher" then .change > .base else .change < .base end)] | length),
				change_worse: ([$pp[] | select(if $dir == "higher" then .change < .base else .change > .base end)] | length)
			}
			| .change_share = (if .base_median == 0 or .base_median == null or .change_median == null then null
				else (.change_median - .base_median) / .base_median end))),
		compare_exit: $compare_exit, compare: $compare
	}' "$out/collected.jsonl" >"$out/analysis.json"

jq -r '
	def num: if . == null then "—" elif (if . < 0 then -. else . end) >= 100 then (. * 10 | round / 10 | tostring)
		else (. * 10000 | round / 10000 | tostring) end;
	def pct: if . == null then "—" else ((. * 1000 | round) / 10 | tostring) + " %" end;
	"# Paired runs: \(.base[0:12]) (base) against \(.change) (change)",
	"",
	"`scripts/pairs.sh`, pairs: \(.pairs), runs counted: \(.runs) (warm-ups not). Change is (change − base) / base of the medians; better is the number of pairs in which the change arm read better, of the pairs with both runs.",
	"",
	"Failed runs: " + (if (.failed_runs | length) == 0 then "none." else "" end),
	(.failed_runs[] | "- pair \(.pair), \(.arm), \(.workload): exit \(.exit)\(if (.failed // 0) > 0 then ", \(.failed) operations failed" else "" end)"),
	"",
	"| workload | metric | base | change | change | better | base wall | change wall |",
	"|---|---|---|---|---|---|---|---|",
	(.metrics[] | select(.end_to_end)
		| "| \(.workload) | \(.metric) | \(.base_median | num) | \(.change_median | num) | \(.change_share | pct) | \(.change_better)/\(.pairs) | \(.base_wall_median | num) | \(.change_wall_median | num) |"),
	"",
	"`bash bench/run.sh -compare base change` (exit \(.compare_exit)):",
	"",
	"```",
	(.compare | rtrimstr("\n")),
	"```"' "$out/analysis.json" >"$out/analysis.md"

echo "pairs: wrote $out/analysis.md"
cat "$out/analysis.md"
