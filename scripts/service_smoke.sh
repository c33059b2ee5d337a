#!/usr/bin/env bash
# The CI service-smoke gate (DESIGN.md §14): start tpu-serve over the
# committed specs/ corpus, then prove — byte for byte — that the HTTP
# answer for every spec's what-if query, on its default fabric (as a
# cache miss and then as a hit) and on the static arm, equals the
# offline answer from `tpu-serve --oneshot`
# (which builds its simulator through the same GoodputSim::for_spec
# path as `repro --spec` and the test suite). The same holds for one
# collective quote per op and one short fleet run per arm.
# Also checks every served spec body round-trips the committed file.
#
# Usage: scripts/service_smoke.sh [HOST:PORT]
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:17471}"
BIN=target/release/tpu-serve
QUERY='availability=0.992&trials=120&seed=7'
FLEET='horizon_days=0.25&trials=1'

cargo build --release -p tpu-serve

"$BIN" --addr "$ADDR" --specs-dir specs &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the service to come up (10s budget).
for _ in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz"
echo

workdir=$(mktemp -d)
fail=0
for spec in specs/*.json; do
  name=$(basename "$spec" .json)

  # The served spec is the committed file, byte for byte.
  curl -sf "http://$ADDR/specs/$name" >"$workdir/$name.spec.json"
  if ! diff -u "$spec" "$workdir/$name.spec.json"; then
    echo "FAIL $name: served spec differs from committed $spec"
    fail=1
  fi

  # The HTTP what-if answer is the offline answer, byte for byte: asked
  # twice on one connection, it must miss the cache and then hit it,
  # and both bodies must equal the --oneshot body.
  "$BIN" --oneshot "$spec" "whatif?$QUERY" >"$workdir/$name.offline.json"
  curl -sf -v -D "$workdir/$name.headers" \
    -o "$workdir/$name.http.json" "http://$ADDR/specs/$name/whatif?$QUERY" \
    -o "$workdir/$name.hit.json" "http://$ADDR/specs/$name/whatif?$QUERY" \
    2>"$workdir/$name.curl.log"
  caches=$(tr -d '\r' <"$workdir/$name.headers" | sed -n 's/^[Xx]-[Cc]ache: //p' | tr '\n' ' ')
  if [ "$caches" != "miss hit " ]; then
    echo "FAIL $name: X-Cache was '$caches', expected 'miss hit '"
    fail=1
  fi
  if ! grep -q "Re-using existing connection" "$workdir/$name.curl.log"; then
    echo "FAIL $name: curl did not reuse the connection for the hit"
    fail=1
  fi
  for asked in http hit; do
    if diff -u "$workdir/$name.offline.json" "$workdir/$name.$asked.json"; then
      echo "ok $name: HTTP $asked == offline ($(cat "$workdir/$name.$asked.json"))"
    else
      echo "FAIL $name: HTTP $asked response differs from offline --oneshot"
      fail=1
    fi
  done

  # No spec's default fabric is the static arm, so ask for it as well:
  # the statically-cabled machine, or a switched spec's counterfactual.
  curl -sf "http://$ADDR/specs/$name/whatif?$QUERY&fabric=static" >"$workdir/$name.static.http.json"
  "$BIN" --oneshot "$spec" "whatif?$QUERY&fabric=static" >"$workdir/$name.static.offline.json"
  if diff -u "$workdir/$name.static.offline.json" "$workdir/$name.static.http.json"; then
    echo "ok $name: static-arm HTTP == offline ($(cat "$workdir/$name.static.http.json"))"
  else
    echo "FAIL $name: static-arm HTTP response differs from offline --oneshot"
    fail=1
  fi

  # One collective quote per op (the default 4x4x4 shape places on
  # every committed spec) and one short fleet run per arm.
  for endpoint in collective?op=all_reduce collective?op=all_to_all \
    "fleet?$FLEET" "fleet?$FLEET&fabric=static"; do
    label=$(printf '%s' "$endpoint" | tr -c 'a-z0-9_' '.')
    curl -sf "http://$ADDR/specs/$name/$endpoint" >"$workdir/$name.$label.http.json"
    "$BIN" --oneshot "$spec" "$endpoint" >"$workdir/$name.$label.offline.json"
    if diff -u "$workdir/$name.$label.offline.json" "$workdir/$name.$label.http.json"; then
      echo "ok $name: $endpoint HTTP == offline"
    else
      echo "FAIL $name: $endpoint HTTP response differs from offline --oneshot"
      fail=1
    fi
  done
done

# Keep-alive: one curl invocation with several URLs reuses one
# connection (curl logs "Re-using existing connection"); the pipelined
# bodies must equal the fresh-connection bodies fetched above.
KA_SPEC=$(basename "$(ls specs/*.json | head -1)" .json)
curl -sf -v \
  "http://$ADDR/specs/$KA_SPEC/whatif?$QUERY" \
  "http://$ADDR/healthz" \
  "http://$ADDR/specs/$KA_SPEC/whatif?$QUERY" \
  >"$workdir/keepalive.out" 2>"$workdir/keepalive.log"
if ! grep -q "Re-using existing connection" "$workdir/keepalive.log"; then
  echo "FAIL keep-alive: curl did not reuse the connection"
  sed -n 's/^\* //p' "$workdir/keepalive.log" | head -20
  fail=1
fi
cat "$workdir/$KA_SPEC.http.json" \
    <(curl -sf "http://$ADDR/healthz") \
    "$workdir/$KA_SPEC.http.json" >"$workdir/keepalive.expect"
if diff -u "$workdir/keepalive.expect" "$workdir/keepalive.out"; then
  echo "ok keep-alive: pipelined responses == fresh-connection responses"
else
  echo "FAIL keep-alive: pipelined responses differ"
  fail=1
fi

# Sweep: the grid answer is exactly the assembled per-point --oneshot
# answers — [P1,P2,...] with each point's trailing newline trimmed.
SWEEP_AVAIL='0.99,0.992'
SWEEP_CHIPS='1024,2048'
SWEEP_SHARED='trials=120&seed=7'
curl -sf "http://$ADDR/specs/$KA_SPEC/whatif/sweep?availability=$SWEEP_AVAIL&slice_chips=$SWEEP_CHIPS&$SWEEP_SHARED" \
  >"$workdir/sweep.http.json"
{
  printf '['
  first=1
  for avail in ${SWEEP_AVAIL//,/ }; do
    for chips in ${SWEEP_CHIPS//,/ }; do
      [ "$first" -eq 1 ] || printf ','
      first=0
      "$BIN" --oneshot "specs/$KA_SPEC.json" \
        "whatif?availability=$avail&slice_chips=$chips&$SWEEP_SHARED" | tr -d '\n'
    done
  done
  printf ']\n'
} >"$workdir/sweep.offline.json"
if diff -u "$workdir/sweep.offline.json" "$workdir/sweep.http.json"; then
  echo "ok sweep: grid response == assembled per-point --oneshot answers"
else
  echo "FAIL sweep: grid response differs from assembled per-point answers"
  fail=1
fi

rm -rf "$workdir"
if [ "$fail" -ne 0 ]; then
  echo "service smoke FAILED"
  exit 1
fi
echo "service smoke passed: every spec and endpoint byte-identical HTTP vs offline"
