#!/bin/sh
# smoke_crash.sh — prove the WAL's durability contract against a real
# kill -9, on the wire, with no cooperation from the dying process.
#
# Phase 1 (clean stream, dirty death): stream a full vmpgen slice into
# a WAL-backed vmpd, kill -9 before any epoch can be cut, restart on
# the same -wal-dir, and require the recovered daemon's query answers
# to be byte-identical to vmpstudy computing them offline from the very
# file that was streamed. Everything acked must survive; nothing may be
# invented.
#
# Phase 2 (mid-stream death): stream with vmpgen's -acked ledger (each
# 202-acknowledged batch is on disk before the next POST), kill -9 in
# the middle of the stream, restart, and require (a) every acked record
# to be present in the recovered generation, and (b) the recovered
# daemon's answers to be byte-identical to vmpstudy over a dump of
# exactly what was recovered — the recovered state is internally
# consistent, not just a superset.
set -eu

cd "$(dirname "$0")/.."

DIR="$(mktemp -d)"
VMPD_PID=""
cleanup() {
	if [ -n "$VMPD_PID" ] && kill -0 "$VMPD_PID" 2>/dev/null; then
		kill -KILL "$VMPD_PID" 2>/dev/null || true
		wait "$VMPD_PID" 2>/dev/null || true
	fi
	rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "smoke-crash: building vmpd, vmpgen, vmpstudy"
go build -o "$DIR" ./cmd/vmpd ./cmd/vmpgen ./cmd/vmpstudy

echo "smoke-crash: generating dataset slice"
"$DIR/vmpgen" -stride 24 -o "$DIR/views.jsonl"
RECORDS=$(wc -l < "$DIR/views.jsonl" | tr -d ' ')

ADDR="127.0.0.1:18476"

# boot_vmpd TAG [extra vmpd flags...]: start a WAL-backed daemon with a
# deliberately huge -epoch so only a crash or an explicit snapshot ever
# moves data out of the WAL, and wait for /healthz (which only opens
# after boot replay finishes).
boot_vmpd() {
	tag="$1"
	shift
	"$DIR/vmpd" -addr "$ADDR" -epoch 24h -wal-dir "$DIR/wal" -wal-fsync batch "$@" \
		>"$DIR/vmpd-$tag.log" 2>&1 &
	VMPD_PID=$!
	i=0
	until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 200 ]; then
			echo "smoke-crash: vmpd ($tag) never became healthy" >&2
			cat "$DIR/vmpd-$tag.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# kill9_vmpd: SIGKILL the daemon — no drain, no dump, no final epoch.
kill9_vmpd() {
	kill -KILL "$VMPD_PID"
	wait "$VMPD_PID" 2>/dev/null || true
	VMPD_PID=""
}

# stop_vmpd: SIGTERM and require a clean exit (used after recovery).
stop_vmpd() {
	kill -TERM "$VMPD_PID"
	if ! wait "$VMPD_PID"; then
		echo "smoke-crash: vmpd exited nonzero on SIGTERM" >&2
		cat "$DIR"/vmpd-*.log >&2
		exit 1
	fi
	VMPD_PID=""
}

# --- Phase 1: every record acked, then kill -9 before any epoch ---

echo "smoke-crash: phase 1: booting vmpd with WAL (fsync=batch)"
boot_vmpd phase1-pre

echo "smoke-crash: phase 1: streaming $RECORDS records, then kill -9"
"$DIR/vmpgen" -stride 24 -post "http://$ADDR" -post-verify
kill9_vmpd

# The log is one stream of whole batches directly under -wal-dir.
echo "smoke-crash: phase 1: restarting on the same -wal-dir"
boot_vmpd phase1-post
if ls "$DIR/wal" | grep -q '^shard-'; then
	echo "smoke-crash: phase 1: the log writes per-shard directories:" >&2
	ls "$DIR/wal" >&2
	exit 1
fi
SNAP=$(curl -sf -X POST "http://$ADDR/v1/snapshot")
case "$SNAP" in
*"\"records\":$RECORDS"*) ;;
*)
	echo "smoke-crash: phase 1: recovered generation wrong: $SNAP (want $RECORDS records)" >&2
	cat "$DIR/vmpd-phase1-post.log" >&2
	exit 1
	;;
esac

curl -sf "http://$ADDR/v1/query/share?dim=protocol" >"$DIR/p1_share.json"
curl -sf "http://$ADDR/v1/query/top-publishers?n=10" >"$DIR/p1_top.json"
stop_vmpd

echo "smoke-crash: phase 1: comparing recovered answers against offline vmpstudy"
"$DIR/vmpstudy" -input "$DIR/views.jsonl" -share protocol >"$DIR/p1_offline_share.json"
"$DIR/vmpstudy" -input "$DIR/views.jsonl" -top 10 >"$DIR/p1_offline_top.json"
cmp "$DIR/p1_share.json" "$DIR/p1_offline_share.json" || {
	echo "smoke-crash: phase 1: share answer diverged after crash recovery" >&2
	exit 1
}
cmp "$DIR/p1_top.json" "$DIR/p1_offline_top.json" || {
	echo "smoke-crash: phase 1: top-publishers answer diverged after crash recovery" >&2
	exit 1
}

# --- Phase 2: kill -9 mid-stream, acked ledger as the oracle ---

rm -rf "$DIR/wal"
echo "smoke-crash: phase 2: booting a fresh WAL-backed vmpd"
boot_vmpd phase2-pre

echo "smoke-crash: phase 2: streaming in small batches, kill -9 mid-stream"
"$DIR/vmpgen" -stride 24 -post "http://$ADDR" -post-batch 100 \
	-acked "$DIR/acked.jsonl" >"$DIR/vmpgen-phase2.log" 2>&1 &
GEN_PID=$!
# Wait until the daemon has acked a real prefix, then pull the plug;
# vmpgen's next POST fails and it exits nonzero — that is the point.
i=0
until [ -s "$DIR/acked.jsonl" ] && [ "$(wc -l < "$DIR/acked.jsonl")" -ge 500 ]; do
	i=$((i + 1))
	if [ "$i" -gt 200 ]; then
		echo "smoke-crash: phase 2: stream never reached 500 acked records" >&2
		exit 1
	fi
	sleep 0.05
done
kill9_vmpd
wait "$GEN_PID" 2>/dev/null || true
ACKED=$(wc -l < "$DIR/acked.jsonl" | tr -d ' ')

echo "smoke-crash: phase 2: restarting; $ACKED acked records must survive"
boot_vmpd phase2-post -dump "$DIR/recovered.jsonl"
curl -sf -X POST "http://$ADDR/v1/snapshot" >/dev/null
curl -sf "http://$ADDR/v1/query/share?dim=protocol" >"$DIR/p2_share.json"
curl -sf "http://$ADDR/v1/query/top-publishers?n=10" >"$DIR/p2_top.json"
stop_vmpd

RECOVERED=$(wc -l < "$DIR/recovered.jsonl" | tr -d ' ')
echo "smoke-crash: phase 2: recovered $RECOVERED records ($ACKED were acked)"
if [ "$RECOVERED" -lt "$ACKED" ]; then
	echo "smoke-crash: phase 2: recovered fewer records than were acked" >&2
	exit 1
fi

# Every acked line must appear in the recovered dump (comm -23 on
# sorted files is a multiset subset check: lines only in the ledger).
sort "$DIR/acked.jsonl" >"$DIR/acked.sorted"
sort "$DIR/recovered.jsonl" >"$DIR/recovered.sorted"
LOST=$(comm -23 "$DIR/acked.sorted" "$DIR/recovered.sorted" | wc -l | tr -d ' ')
if [ "$LOST" -ne 0 ]; then
	echo "smoke-crash: phase 2: $LOST acked records lost in the crash:" >&2
	comm -23 "$DIR/acked.sorted" "$DIR/recovered.sorted" | head -5 >&2
	exit 1
fi

echo "smoke-crash: phase 2: comparing recovered answers against vmpstudy over the recovered dump"
"$DIR/vmpstudy" -input "$DIR/recovered.jsonl" -share protocol >"$DIR/p2_offline_share.json"
"$DIR/vmpstudy" -input "$DIR/recovered.jsonl" -top 10 >"$DIR/p2_offline_top.json"
cmp "$DIR/p2_share.json" "$DIR/p2_offline_share.json" || {
	echo "smoke-crash: phase 2: share answer inconsistent with recovered state" >&2
	exit 1
}
cmp "$DIR/p2_top.json" "$DIR/p2_offline_top.json" || {
	echo "smoke-crash: phase 2: top-publishers answer inconsistent with recovered state" >&2
	exit 1
}

echo "smoke-crash: WAL durability OK (phase 1: $RECORDS/$RECORDS after kill -9; phase 2: $ACKED acked, $RECOVERED recovered, 0 lost)"
