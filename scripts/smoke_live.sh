#!/bin/sh
# smoke_live.sh — boot the live serving plane end to end and prove the
# online/offline equivalence contract on the wire: a vmpd that ingested
# a vmpgen slice over HTTP must answer /v1/query/* byte-identically to
# vmpstudy computing the same answers offline from the same JSONL file.
#
# The drive runs twice against two fresh daemons — once as plain JSONL,
# once as gzip-compressed binary batch frames — and the two runs must
# land the same ingest counter and byte-identical query answers: the
# wire encoding is a transport detail, never a semantic one.
#
# A last leg holds vmpd to the store-and-forward role it has without
# -wal-dir (the only collector there is): -load a file, SIGTERM, and
# the -dump must be every record, answering offline exactly as the
# file that was loaded does.
set -eu

cd "$(dirname "$0")/.."

DIR="$(mktemp -d)"
VMPD_PID=""
cleanup() {
	if [ -n "$VMPD_PID" ] && kill -0 "$VMPD_PID" 2>/dev/null; then
		kill -TERM "$VMPD_PID" 2>/dev/null || true
		wait "$VMPD_PID" 2>/dev/null || true
	fi
	rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "smoke: building vmpd, vmpgen, vmpstudy, vmptop"
go build -o "$DIR" ./cmd/vmpd ./cmd/vmpgen ./cmd/vmpstudy ./cmd/vmptop

echo "smoke: generating dataset slice"
"$DIR/vmpgen" -stride 24 -o "$DIR/views.jsonl"
RECORDS=$(wc -l < "$DIR/views.jsonl" | tr -d ' ')

# boot_vmpd ADDR [vmpd flags...]: start a fresh daemon and wait for
# /healthz.
boot_vmpd() {
	addr="$1"
	shift
	"$DIR/vmpd" -addr "$addr" -epoch 1h "$@" >"$DIR/vmpd-$addr.log" 2>&1 &
	VMPD_PID=$!
	i=0
	until curl -sf "http://$addr/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smoke: vmpd on $addr never became healthy" >&2
			cat "$DIR/vmpd-$addr.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# stop_vmpd: SIGTERM the current daemon and require a clean exit.
stop_vmpd() {
	kill -TERM "$VMPD_PID"
	if ! wait "$VMPD_PID"; then
		echo "smoke: vmpd exited nonzero" >&2
		cat "$DIR"/vmpd-*.log >&2
		exit 1
	fi
	VMPD_PID=""
}

# drive_and_query ADDR TAG [vmpgen encode flags...]: stream the slice
# into the daemon at ADDR, verify the ingest counter covers it, cut an
# epoch, and save the query answers under TAG. Every endpoint is asked
# twice: the first answer is a scan of the generation, the second is
# read back from it, and the two must be the same bytes (the first of
# each is what is later held to offline vmpstudy).
drive_and_query() {
	addr="$1"
	tag="$2"
	shift 2
	echo "smoke: streaming $RECORDS records over HTTP ($tag, with ingest-counter verification)"
	"$DIR/vmpgen" -stride 24 -post "http://$addr" -post-verify "$@"

	echo "smoke: cutting an epoch ($tag)"
	SNAP=$(curl -sf -X POST "http://$addr/v1/snapshot")
	case "$SNAP" in
	*"\"records\":$RECORDS"*) ;;
	*)
		echo "smoke: snapshot reports wrong record count: $SNAP (want $RECORDS)" >&2
		exit 1
		;;
	esac

	echo "smoke: checking /v1/metrics ingest counter ($tag)"
	METRICS=$(curl -sf "http://$addr/v1/metrics")
	case "$METRICS" in
	*"\"live_ingest_records_total\":$RECORDS"*) ;;
	*)
		echo "smoke: metrics ingest counter does not match $RECORDS posted records: $METRICS" >&2
		exit 1
		;;
	esac

	for ask in "" again_; do
		curl -sf "http://$addr/v1/query/share?dim=protocol" >"$DIR/${ask}${tag}_share.json"
		curl -sf "http://$addr/v1/query/top-publishers?n=10" >"$DIR/${ask}${tag}_top.json"
		curl -sf "http://$addr/v1/query/window?start=2016-01-01&days=3" >"$DIR/${ask}${tag}_window.json"
	done
	for q in share top window; do
		cmp "$DIR/${tag}_$q.json" "$DIR/again_${tag}_$q.json" || {
			echo "smoke: $q answered differently the second time it was asked ($tag)" >&2
			exit 1
		}
	done

	echo "smoke: checking the second askings were answered from the generation ($tag)"
	METRICS=$(curl -sf "http://$addr/v1/metrics")
	case "$METRICS" in
	*'"live_query_memo_hits_total":0'*)
		echo "smoke: no query was answered from the generation's memo: $METRICS" >&2
		exit 1
		;;
	*'"live_query_memo_hits_total":'*) ;;
	*)
		echo "smoke: live_query_memo_hits_total missing from /v1/metrics: $METRICS" >&2
		exit 1
		;;
	esac
}

# check_ack_quantiles ADDR HIST: require the ingest.ack histogram HIST
# in /v1/metrics to carry a count covering the drive and a nonzero p50.
check_ack_quantiles() {
	addr="$1"
	hist="$2"
	echo "smoke: checking $hist quantiles"
	METRICS=$(curl -sf "http://$addr/v1/metrics")
	case "$METRICS" in
	*"\"$hist\""*) ;;
	*)
		echo "smoke: $hist missing from /v1/metrics" >&2
		exit 1
		;;
	esac
	P50=$(printf '%s' "$METRICS" | sed -n "s/.*\"$hist\":{[^{]*{\"p50\":\([^,}]*\).*/\1/p")
	if [ -z "$P50" ]; then
		echo "smoke: $hist has no p50 quantile (empty histogram?): $METRICS" >&2
		exit 1
	fi
	case "$P50" in
	0 | 0.0 | -*)
		echo "smoke: $hist p50 = $P50, want > 0" >&2
		exit 1
		;;
	esac
	echo "smoke: $hist p50 = ${P50}s"
}

# check_prom ADDR: require /metrics to parse as Prometheus text format
# 0.0.4 — every line a TYPE comment or a sample — and to carry the
# ingest counter and ack histogram families.
check_prom() {
	addr="$1"
	echo "smoke: checking /metrics Prometheus exposition"
	curl -sf "http://$addr/metrics" >"$DIR/metrics.prom"
	if [ ! -s "$DIR/metrics.prom" ]; then
		echo "smoke: /metrics is empty" >&2
		exit 1
	fi
	BAD=$(grep -cvE '^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket\{le="[^"]+"\})? [0-9eE.+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="\+Inf"\} [0-9]+)$' "$DIR/metrics.prom" || true)
	if [ "$BAD" -ne 0 ]; then
		echo "smoke: $BAD /metrics lines violate the exposition grammar:" >&2
		grep -vE '^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket\{le="[^"]+"\})? [0-9eE.+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="\+Inf"\} [0-9]+)$' "$DIR/metrics.prom" >&2
		exit 1
	fi
	for want in "live_ingest_records_total $RECORDS" "# TYPE live_ingest_ack_jsonl_seconds histogram"; do
		if ! grep -qF "$want" "$DIR/metrics.prom"; then
			echo "smoke: /metrics missing \"$want\"" >&2
			exit 1
		fi
	done
}

# check_series ADDR: wait for the runtime sampler to record a point
# carrying the ingest counter, then point vmptop -once at it.
check_series() {
	addr="$1"
	echo "smoke: waiting for a /v1/series sample"
	i=0
	until curl -sf "http://$addr/v1/series" | grep -q "\"live_ingest_records_total\":$RECORDS"; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smoke: /v1/series never recorded the ingest counter" >&2
			curl -sf "http://$addr/v1/series" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
	echo "smoke: rendering one vmptop frame"
	"$DIR/vmptop" -addr "http://$addr" -once >"$DIR/vmptop.txt"
	for want in "ingest" "runtime"; do
		if ! grep -q "$want" "$DIR/vmptop.txt"; then
			echo "smoke: vmptop frame missing \"$want\" row:" >&2
			cat "$DIR/vmptop.txt" >&2
			exit 1
		fi
	done
}

ADDR="127.0.0.1:18474"
echo "smoke: booting vmpd on $ADDR (JSONL run)"
boot_vmpd "$ADDR"
drive_and_query "$ADDR" online
check_ack_quantiles "$ADDR" live_ingest_ack_jsonl_seconds

echo "smoke: checking every vmpgen JSONL line took the fast parser"
METRICS=$(curl -sf "http://$ADDR/v1/metrics")
case "$METRICS" in
*'"live_ingest_jsonl_fallback_total":0'[,}]*) ;;
*)
	echo "smoke: vmpgen's own JSONL fell back to encoding/json (live_ingest_jsonl_fallback_total != 0): $METRICS" >&2
	exit 1
	;;
esac
check_prom "$ADDR"
check_series "$ADDR"

echo "smoke: checking /v1/trace recorded the epoch cut"
TRACE=$(curl -sf "http://$ADDR/v1/trace")
case "$TRACE" in
*'"name":"epoch.cut"'*) ;;
*)
	echo "smoke: no epoch.cut span in /v1/trace" >&2
	exit 1
	;;
esac
case "$TRACE" in
*'"type":"generation_published"'*) ;;
*)
	echo "smoke: no generation_published event in /v1/trace" >&2
	exit 1
	;;
esac

echo "smoke: draining vmpd with SIGTERM"
stop_vmpd

ADDR2="127.0.0.1:18475"
echo "smoke: booting vmpd on $ADDR2 (binary+gzip run)"
boot_vmpd "$ADDR2"
drive_and_query "$ADDR2" binary -encode binary -compress
check_ack_quantiles "$ADDR2" live_ingest_ack_binary_seconds

echo "smoke: checking binary+gzip ingest answers match the JSONL run"
cmp "$DIR/online_share.json" "$DIR/binary_share.json" || {
	echo "smoke: binary-ingest share answer differs from JSONL ingest" >&2
	exit 1
}
cmp "$DIR/online_top.json" "$DIR/binary_top.json" || {
	echo "smoke: binary-ingest top-publishers answer differs from JSONL ingest" >&2
	exit 1
}
cmp "$DIR/online_window.json" "$DIR/binary_window.json" || {
	echo "smoke: binary-ingest window answer differs from JSONL ingest" >&2
	exit 1
}

echo "smoke: draining vmpd with SIGTERM"
stop_vmpd

echo "smoke: comparing online answers against offline vmpstudy"
"$DIR/vmpstudy" -input "$DIR/views.jsonl" -share protocol >"$DIR/offline_share.json"
"$DIR/vmpstudy" -input "$DIR/views.jsonl" -top 10 >"$DIR/offline_top.json"
cmp "$DIR/online_share.json" "$DIR/offline_share.json" || {
	echo "smoke: online share answer differs from offline" >&2
	exit 1
}
cmp "$DIR/online_top.json" "$DIR/offline_top.json" || {
	echo "smoke: online top-publishers answer differs from offline" >&2
	exit 1
}

ADDR3="127.0.0.1:18476"
echo "smoke: booting vmpd on $ADDR3 as a store-and-forward collector (-load, -dump, no drive)"
boot_vmpd "$ADDR3" -load "$DIR/views.jsonl" -dump "$DIR/dumped.jsonl"
echo "smoke: draining vmpd with SIGTERM"
stop_vmpd
DUMPED=$(wc -l < "$DIR/dumped.jsonl" | tr -d ' ')
if [ "$DUMPED" != "$RECORDS" ]; then
	echo "smoke: vmpd -load/-dump wrote $DUMPED records, want the $RECORDS it loaded" >&2
	cat "$DIR/vmpd-$ADDR3.log" >&2
	exit 1
fi
"$DIR/vmpstudy" -input "$DIR/dumped.jsonl" -share protocol >"$DIR/dumped_share.json"
"$DIR/vmpstudy" -input "$DIR/dumped.jsonl" -top 10 >"$DIR/dumped_top.json"
cmp "$DIR/dumped_share.json" "$DIR/offline_share.json" || {
	echo "smoke: the dumped store's share answer differs from the loaded file's" >&2
	exit 1
}
cmp "$DIR/dumped_top.json" "$DIR/offline_top.json" || {
	echo "smoke: the dumped store's top-publishers answer differs from the loaded file's" >&2
	exit 1
}

echo "smoke: live serving plane OK ($RECORDS records, byte-identical answers over JSONL, binary+gzip, offline, and a -load/-dump round trip)"
