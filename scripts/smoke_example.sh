#!/bin/sh
# smoke_example.sh — run examples/live-pipeline, the one in-process
# user of the Sensor → live.Server → Snapshot → analytics path, and hold
# its output to the numbers it has always printed: every record the
# sensors reported is a record the backend stored, and the analysis of
# what arrived on the wire is the analysis of what was generated. The
# generator is seeded, so everything below the listen address (an
# ephemeral port) is deterministic.
set -eu

cd "$(dirname "$0")/.."

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT INT TERM

echo "smoke: running examples/live-pipeline"
go run ./examples/live-pipeline >"$DIR/out.txt"

cat >"$DIR/want.txt" <<'WANT'
reported 18444 view records from 112 publishers' sensors
backend stored 18444 records (1710380 view-hours represented)

protocols per publisher (from wire-delivered records):
  1 protocol(s):  41.1% of publishers,   5.2% of view-hours
  2 protocol(s):  33.0% of publishers,  51.4% of view-hours
  3 protocol(s):  25.0% of publishers,  43.4% of view-hours
  4 protocol(s):   0.9% of publishers,   0.0% of view-hours

view-hour share by protocol:
  HLS               56.7%
  DASH              41.9%
  SmoothStreaming    1.3%
  HDS                0.0%
WANT
tail -n +2 "$DIR/out.txt" | cmp - "$DIR/want.txt" || {
	echo "smoke: examples/live-pipeline printed:" >&2
	cat "$DIR/out.txt" >&2
	exit 1
}
echo "smoke: examples/live-pipeline OK (18444 reported = 18444 stored, protocol shares unchanged)"
