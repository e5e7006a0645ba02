#!/bin/sh
# census.sh — `make census`: runs the shipped workflows from coverage-
# instrumented builds and fails on code none of them runs. The
# workflows, the failure rules and the list of functions kept at 0.0 %
# are in docs/census.md.
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov" "$tmp/results"
export GOCOVERDIR="$tmp/cov"
export GOFLAGS="-cover -coverpkg=vmp/..."

"$GO" build -o "$tmp/" ./cmd/vmpstudy ./cmd/vmpgen
"$GO" build -C bench -cover -coverpkg=vmp/... -o "$tmp/" .
# The harness itself is built without -cover, so only the binaries it
# builds and drives count: a package its tests alone import is not kept.
GOFLAGS= "$GO" test -c -o "$tmp/scenario.test" ./internal/scenario
(cd internal/scenario && "$tmp/scenario.test" -test.run '^TestScenarios$' -test.count=1 >"$tmp/scenario.out") ||
	{ cat "$tmp/scenario.out"; exit 1; }
"$tmp/vmpstudy" -scorecard -o "$tmp/scorecard.md"
"$tmp/vmpstudy" -figure all -o "$tmp/full_study_output.txt"
for f in 2b 3a 3b 3c 4 crosstab cdn-segregation; do
	"$tmp/vmpstudy" -format csv -figure "$f" -o "$tmp/$f.csv"
done
"$tmp/vmpstudy" -stats -figure all -stride 12 -o "$tmp/stats.txt" 2>"$tmp/stats.err"
"$tmp/vmpgen" -stride 24 -o "$tmp/views.jsonl"
"$tmp/vmpstudy" -input "$tmp/views.jsonl" -o "$tmp/input.txt"
"$tmp/vmpstudy" -input "$tmp/views.jsonl" -share protocol -o "$tmp/share.txt"
"$tmp/vmpstudy" -input "$tmp/views.jsonl" -top 10 -o "$tmp/top.txt"
for args in "-quick -trace" "-quick -workload ingest_wal"; do
	# shellcheck disable=SC2086 # args is two or three flags
	"$tmp/bench" $args -out "$tmp/results" >"$tmp/bench.out" 2>&1 ||
		{ cat "$tmp/bench.out"; echo "census: bench $args failed"; exit 1; }
done

"$GO" tool covdata pkglist -i "$tmp/cov" | sort >"$tmp/covered-pkgs"
"$GO" tool covdata func -i "$tmp/cov" >"$tmp/func"
awk '$NF == "0.0%" && $1 !~ /^vmp\/bench\// { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' "$tmp/func" | sort -u >"$tmp/zero"
sed -n 's/^| `\([^`]*\)`.*/\1/p' docs/census.md | sort >"$tmp/listed"

"$GO" list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | sort | comm -23 - "$tmp/covered-pkgs" >"$tmp/unrun-pkgs"
comm -23 "$tmp/zero" "$tmp/listed" >"$tmp/unlisted"
comm -13 "$tmp/zero" "$tmp/listed" >"$tmp/stale"

status=0
if [ -s "$tmp/unrun-pkgs" ]; then
	echo "census: no shipped workflow links these packages (no coverage data):"
	sed 's/^/  /' "$tmp/unrun-pkgs"
	status=1
fi
if [ -s "$tmp/unlisted" ]; then
	echo "census: at 0.0 % in every shipped workflow and not in docs/census.md (delete it, or add a row):"
	sed 's/^/  /' "$tmp/unlisted"
	status=1
fi
if [ -s "$tmp/stale" ]; then
	echo "census: listed in docs/census.md but not at 0.0 % (a workflow runs it, or it is gone; drop the row):"
	sed 's/^/  /' "$tmp/stale"
	status=1
fi
total="$(awk '$1 == "total" { print $NF }' "$tmp/func")"
echo "census: $(wc -l <"$tmp/zero") functions at 0.0 % outside vmp/bench/, $(wc -l <"$tmp/listed") rows in docs/census.md; $total of statements, $(ls "$tmp/cov" | wc -l) covdata files"
exit "$status"
