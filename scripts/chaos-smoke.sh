#!/usr/bin/env bash
# End-to-end smoke test of the self-healing serving stack: build gaussd,
# serve a file-backed index with -chaos, the background scrubber and the ops
# listener armed, then break its storage at runtime through POST /debug/fault
# and assert the degraded-mode contract from the outside:
#
#   - an insert that hits an injected WAL/page fault fails with a typed error,
#     and the daemon degrades instead of crashing;
#   - reads keep serving the last committed snapshot through every window;
#   - the recovery supervisor heals the daemon without a restart (readyz
#     returns to 200, gaussd_recoveries_total advances);
#   - every acknowledged insert is still answerable after all heals, and
#     after a graceful shutdown survives a cold reopen by gausscli;
#   - the scrubber completed passes and found nothing on healthy storage;
#   - a daemon started WITHOUT -chaos refuses /debug/fault outright.
#
# CI runs this on every push; it is also handy locally after touching the
# fault, server or recovery code.
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

addr="127.0.0.1:${CHAOS_SMOKE_PORT:-18452}"
ops="127.0.0.1:${CHAOS_SMOKE_OPS_PORT:-18453}"

echo "# building gaussd, gausscli, gaussgen"
go build -o "$tmp/bin/" ./cmd/gaussd ./cmd/gausscli ./cmd/gaussgen

echo "# generating data set and building the index"
"$tmp/bin/gaussgen" -set ds2 -n 2000 -out "$tmp/ds.csv" -queries "$tmp/queries.csv"
"$tmp/bin/gausscli" -data "$tmp/ds.csv" -index "$tmp/ds.gtree"

echo "# -chaos without -ops-addr must refuse to start"
rc=0
timeout 10 "$tmp/bin/gaussd" -index "$tmp/ds.gtree" -addr "$addr" -chaos 2>/dev/null || rc=$?
[ "$rc" = "2" ] || { echo "gaussd -chaos without -ops-addr exited $rc, want 2" >&2; exit 1; }

echo "# starting gaussd on $addr (-chaos, ops on $ops, scrubber armed)"
"$tmp/bin/gaussd" -index "$tmp/ds.gtree" -addr "$addr" -ops-addr "$ops" \
  -chaos -scrub-interval 100ms -scrub-rate -1 &
pid=$!

wait_http() { # wait_http URL [tries]
  local tries="${2:-100}"
  for _ in $(seq "$tries"); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "gaussd exited while waiting for $1" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "timed out waiting for $1" >&2; exit 1
}
wait_http "http://$addr/healthz"
wait_http "http://$addr/readyz"

echo "# /debug/fault reports a disarmed injector"
curl -fsS "http://$ops/debug/fault" | grep -q '"armed":false' \
  || { echo "/debug/fault did not report a disarmed injector" >&2; exit 1; }

# Inserted vectors live far outside the generated [0,1]^10 data and one unit
# apart from each other, so an exact k=1 re-query unambiguously returns its
# own id — the per-insert durability check below needs that separation.
vec() { # vec ID -> one 10-d vector literal with mean[0] = ID - 899000
  echo "{\"id\":$1,\"mean\":[$(($1 - 899000)),0,0,0,0,0,0,0,0,0],\"sigma\":[0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05,0.05]}"
}
qvec() { # qvec ID -> the gausscli mu,sigma query matching vec ID
  echo "$(($1 - 899000)),0.05,0,0.05,0,0.05,0,0.05,0,0.05,0,0.05,0,0.05,0,0.05,0,0.05,0,0.05"
}
insert() { # insert ID -> response body (never fails the script)
  curl -sS "http://$addr/v1/insert" -d "{\"vectors\":[$(vec "$1")]}"
}

echo "# baseline insert acknowledges"
insert 900000 | grep -q '"inserted":1' \
  || { echo "baseline insert did not acknowledge" >&2; exit 1; }
acked="900000"

# The first query from the generated set, without its ground-truth column;
# used to prove reads keep flowing through every fault window.
q=$(sed -n 2p "$tmp/queries.csv" | cut -d, -f2-)
read_ok() {
  # A read may land exactly on a recovery swap and see a typed 503 for the
  # closing snapshot; one of the follow-up attempts must serve. What is
  # never acceptable is reads staying down for a whole fault window.
  local out
  for _ in 1 2 3 4 5; do
    if out=$("$tmp/bin/gausscli" -addr "$addr" -kmliq "$q" -k 3 2>&1) \
      && grep -q 'certified \[' <<<"$out"; then
      return 0
    fi
    sleep 0.05
  done
  echo "last read error: $out" >&2
  return 1
}
read_ok || { echo "baseline read failed" >&2; exit 1; }

# Three fault rounds: each arms one failure class with certainty and a cap
# of one injection, drives inserts into the fault, and waits for the heal.
# Acked ids are recorded; degraded/typed rejections are expected and fine.
id=900001
for sched in \
  '{"seed":1,"ops":{"wal_write":{"prob":1,"max_faults":1}}}' \
  '{"seed":2,"ops":{"page_write":{"prob":1,"max_faults":1,"torn":true}}}' \
  '{"seed":3,"ops":{"wal_sync":{"prob":1,"max_faults":1}}}'; do
  echo "# arming: $sched"
  curl -fsS -X POST "http://$ops/debug/fault" -d "$sched" | grep -q '"armed":true' \
    || { echo "arming the fault schedule failed" >&2; exit 1; }

  saw_reject=""
  for _ in $(seq 20); do
    out=$(insert "$id")
    if grep -q '"inserted":1' <<<"$out"; then
      acked="$acked $id"
    elif grep -q '"code":' <<<"$out"; then
      saw_reject=1
    else
      echo "insert returned an untyped failure: $out" >&2; exit 1
    fi
    id=$((id + 1))
    read_ok || { echo "read failed during a fault window" >&2; exit 1; }
  done
  [ -n "$saw_reject" ] || { echo "no insert tripped the armed fault" >&2; exit 1; }

  curl -fsS -X DELETE "http://$ops/debug/fault" >/dev/null
  wait_http "http://$addr/readyz"
done

echo "# daemon healed in place: recovery counters advanced, state is healthy"
metrics=$(curl -fsS "http://$ops/metrics")
metric() { echo "$metrics" | grep "^$1 " | awk '{print $2}'; }
deg=$(metric gaussd_degraded_total)
rec=$(metric gaussd_recoveries_total)
state=$(metric gaussd_serving_state)
[ "${deg%%.*}" -ge 1 ] 2>/dev/null || { echo "gaussd_degraded_total=$deg, want >=1" >&2; exit 1; }
[ "${rec%%.*}" -ge 1 ] 2>/dev/null || { echo "gaussd_recoveries_total=$rec, want >=1" >&2; exit 1; }
[ "${state%%.*}" = "0" ] || { echo "gaussd_serving_state=$state, want 0 (healthy)" >&2; exit 1; }

echo "# post-heal insert acknowledges at full rate"
insert "$id" | grep -q '"inserted":1' \
  || { echo "insert after the heal did not acknowledge" >&2; exit 1; }
acked="$acked $id"

echo "# every acknowledged insert is answerable on the healed daemon"
for a in $acked; do
  "$tmp/bin/gausscli" -addr "$addr" -kmliq "$(qvec "$a")" -k 1 \
    | grep -q "object $a " \
    || { echo "acknowledged insert $a not found after heal" >&2; exit 1; }
done
echo "# $(echo "$acked" | wc -w) acknowledged inserts verified"

echo "# scrubber ran clean on healthy storage"
runs=$(metric gausstree_scrub_runs_total)
errs=$(metric gausstree_scrub_errors_total)
[ "${runs%%.*}" -ge 1 ] 2>/dev/null || { echo "gausstree_scrub_runs_total=$runs, want >=1" >&2; exit 1; }
[ "${errs%%.*}" -eq 0 ] 2>/dev/null || { echo "gausstree_scrub_errors_total=$errs, want 0" >&2; exit 1; }

echo "# graceful shutdown"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "# acknowledged inserts survive a cold reopen"
for a in $acked; do
  "$tmp/bin/gausscli" -index "$tmp/ds.gtree" -kmliq "$(qvec "$a")" -k 1 \
    | grep -q "object $a " \
    || { echo "acknowledged insert $a lost across restart" >&2; exit 1; }
done

echo "# a daemon without -chaos refuses /debug/fault"
addr2="127.0.0.1:${CHAOS_SMOKE_PORT2:-18454}"
ops2="127.0.0.1:${CHAOS_SMOKE_OPS_PORT2:-18455}"
"$tmp/bin/gaussd" -index "$tmp/ds.gtree" -addr "$addr2" -ops-addr "$ops2" &
pid=$!
wait_http "http://$addr2/healthz"
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$ops2/debug/fault" \
  -d '{"ops":{"wal_write":{"prob":1}}}')
[ "$code" = "404" ] || { echo "/debug/fault without -chaos returned $code, want 404" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid"
pid=""

echo "chaos smoke: OK"
