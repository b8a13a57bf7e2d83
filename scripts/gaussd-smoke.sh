#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: build the daemon and the CLI,
# generate a data set, persist an index, serve it with gaussd, and issue one
# k-MLIQ and one TIQ through `gausscli -addr` — asserting both return
# non-empty certified results over the wire. The daemon runs with its
# operations listener and slow-query log armed, so the same run also
# asserts that /metrics serves the Prometheus families mid-write-storm,
# that the request counters agree with the requests this script issued, and
# that a deliberately slow batch lands in the slow-query log. CI runs this
# on every push; it is also handy locally after touching the server, client
# or wire packages.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

addr="127.0.0.1:${GAUSSD_SMOKE_PORT:-18442}"
ops="127.0.0.1:${GAUSSD_SMOKE_OPS_PORT:-18443}"

echo "# building gaussd, gausscli, gaussgen"
go build -o "$tmp/bin/" ./cmd/gaussd ./cmd/gausscli ./cmd/gaussgen

echo "# generating data set and building the index"
"$tmp/bin/gaussgen" -set ds2 -n 2000 -out "$tmp/ds.csv" -queries "$tmp/queries.csv"
"$tmp/bin/gausscli" -data "$tmp/ds.csv" -index "$tmp/ds.gtree"

echo "# starting gaussd on $addr (ops on $ops, slow-query log armed)"
"$tmp/bin/gaussd" -index "$tmp/ds.gtree" -addr "$addr" \
  -ops-addr "$ops" -slow-query-ms 1 -slow-query-log "$tmp/slow.log" &
pid=$!

for _ in $(seq 100); do
  if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "gaussd exited before becoming healthy" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null

# The first generated query, without its ground-truth id column.
q=$(sed -n 2p "$tmp/queries.csv" | cut -d, -f2-)

echo "# k-MLIQ via gausscli -addr"
out=$("$tmp/bin/gausscli" -addr "$addr" -kmliq "$q" -k 3)
echo "$out"
grep -q 'certified \[' <<<"$out" || { echo "k-MLIQ returned no certified results" >&2; exit 1; }

echo "# TIQ via gausscli -addr"
out=$("$tmp/bin/gausscli" -addr "$addr" -tiq "$q" -p 0.01)
echo "$out"
grep -q 'certified \[' <<<"$out" || { echo "TIQ returned no certified results" >&2; exit 1; }

echo "# insert storm with concurrent reads"
# Hammer /v1/insert from the background while reads keep flowing: the
# snapshot-isolated read path must answer every query mid-storm, and the
# non-blocking write path must acknowledge every insert durably.
storm_log="$tmp/storm.log"
(
  for i in $(seq 1 120); do
    curl -fsS "http://$addr/v1/insert" \
      -d "{\"vectors\":[{\"id\":$((900000 + i)),\"mean\":[0.$((i % 10))1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0],\"sigma\":[0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05]}]}" \
      >>"$storm_log" || echo "INSERT-FAIL" >>"$storm_log"
  done
) &
storm=$!

echo "# scraping /metrics mid-storm"
# The ops listener must answer while writes and reads are in full flight,
# and the exposition must already carry the server and engine families.
metrics=$(curl -fsS "http://$ops/metrics")
for fam in gaussd_http_requests_total gaussd_request_seconds_bucket \
           gaussd_inflight_requests gausstree_wal_fsyncs_total \
           gausstree_snapshot_epoch gausstree_pagefile_logical_reads_total \
           gaussd_build_info; do
  grep -q "^$fam" <<<"$metrics" \
    || { echo "/metrics mid-storm is missing $fam" >&2; exit 1; }
done

reads=0
while kill -0 "$storm" 2>/dev/null; do
  out=$("$tmp/bin/gausscli" -addr "$addr" -kmliq "$q" -k 3)
  grep -q 'certified \[' <<<"$out" \
    || { echo "read failed during insert storm" >&2; exit 1; }
  reads=$((reads + 1))
done
wait "$storm"
grep -q "INSERT-FAIL" "$storm_log" && { echo "insert failed during storm" >&2; exit 1; }
inserted=$(grep -o '"inserted":1' "$storm_log" | wc -l)
echo "# storm done: 120 inserts acknowledged ($inserted confirmed), $reads reads succeeded mid-storm"
[ "$inserted" -eq 120 ] || { echo "expected 120 acknowledged inserts, got $inserted" >&2; exit 1; }
[ "$reads" -ge 1 ] || { echo "no reads completed during the storm" >&2; exit 1; }

echo "# delete through the non-blocking path"
del=$(curl -fsS "http://$addr/v1/delete" \
  -d '{"vector":{"id":900001,"mean":[0.11,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0],"sigma":[0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05]}}')
grep -q '"found":true' <<<"$del" || { echo "delete did not find the stored vector" >&2; exit 1; }

echo "# /v1/stats exposes WAL and snapshot state"
stats=$(curl -fsS "http://$addr/v1/stats")
grep -q '"fsyncs":' <<<"$stats" || { echo "stats missing wal fsyncs" >&2; exit 1; }
grep -q '"mean_group_size":' <<<"$stats" || { echo "stats missing group-commit size" >&2; exit 1; }
epoch=$(echo "$stats" | grep -o '"snapshot_epoch":[0-9]*' | cut -d: -f2)
[ -n "$epoch" ] && [ "$epoch" -ge 121 ] || { echo "snapshot_epoch $epoch did not advance past the storm" >&2; exit 1; }

echo "# request counters agree with the requests this script issued"
metric_value() {
  curl -fsS "http://$ops/metrics" \
    | grep -F "gaussd_http_requests_total{endpoint=\"$1\",outcome=\"ok\"}" \
    | awk '{print $2}'
}
want_kmliq=$((reads + 1)) # the initial certified query plus the storm reads
got_kmliq=$(metric_value kmliq)
[ "$got_kmliq" = "$want_kmliq" ] \
  || { echo "kmliq counter is $got_kmliq, script issued $want_kmliq" >&2; exit 1; }
got_insert=$(metric_value insert)
[ "$got_insert" = "120" ] \
  || { echo "insert counter is $got_insert, script issued 120" >&2; exit 1; }
got_tiq=$(metric_value tiq)
[ "$got_tiq" = "1" ] || { echo "tiq counter is $got_tiq, script issued 1" >&2; exit 1; }

echo "# a deliberately slow batch lands in the slow-query log"
# One batch of 100 queries shares a single admission slot and deadline, so
# it reliably crosses the 1ms slow-query threshold set at startup; its
# client-chosen trace id must come back out in the log line.
item='{"kind":"kmliq","query":{"id":0,"mean":[0.11,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0],"sigma":[0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05]},"k":3}'
items=$item
for _ in $(seq 99); do items="$items,$item"; done
batch=$(curl -fsS "http://$addr/v1/batch" -d "{\"queries\":[$items],\"trace_id\":\"smoke-slow-batch\"}")
grep -q '"trace_id":"smoke-slow-batch"' <<<"$batch" \
  || { echo "batch response did not echo the trace id" >&2; exit 1; }
grep -q '"trace_id":"smoke-slow-batch"' "$tmp/slow.log" \
  || { echo "slow batch missing from the slow-query log" >&2; exit 1; }
grep -q '"endpoint":"batch"' "$tmp/slow.log" \
  || { echo "slow-query log line is not attributed to /v1/batch" >&2; exit 1; }

echo "# graceful shutdown"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "gaussd smoke: OK"
