#!/bin/sh
# Observability check: builds the tree under ThreadSanitizer and runs the `obs` and
# `serve` ctest labels in it (the trace ring, metrics registry, bubble accountant,
# straggler detector, health server, and serving decomposition are all cross-thread
# machinery — TSan is the whole point). Then a live smoke test: launch tools/obs_demo
# (4-stage socket-transport training with PIPEDREAM_HEALTH_SOCK set), poll the health
# endpoint mid-run with tools/health_probe until /metrics returns Prometheus text that
# includes the per-stage bubble-fraction-by-cause gauges, and finally verify the demo's
# Chrome trace parses as JSON and carries "mb" flow events.
#
# Usage: scripts/check_obs.sh [build-dir]   (default: build-obscheck)
set -eu

cd "$(dirname "$0")/.."
dir="${1:-build-obscheck}"

echo "== configure $dir (-DPIPEDREAM_SANITIZE=thread)"
cmake -B "$dir" -S . -DPIPEDREAM_SANITIZE=thread > /dev/null
cmake --build "$dir" -j "$(nproc)" > /dev/null

echo "== ctest -L 'obs|serve' in $dir (TSan)"
(cd "$dir" && ctest -L 'obs|serve' --output-on-failure)

echo "== live health-endpoint smoke test"
sock="${TMPDIR:-/tmp}/pd_obs_check_$$.sock"
trace="${TMPDIR:-/tmp}/pd_obs_check_$$.json"
metrics="${TMPDIR:-/tmp}/pd_obs_check_$$.metrics"
rm -f "$sock" "$trace" "$metrics"

PIPEDREAM_HEALTH_SOCK="$sock" "$dir/tools/obs_demo" \
  --trace "$trace" --epochs 4 --stall-ms 200 &
demo_pid=$!
# If anything below fails, don't leave the demo running.
trap 'kill "$demo_pid" 2> /dev/null || true; rm -f "$sock"' EXIT

# Poll until the endpoint answers with the per-stage bubble attribution (present after
# the first completed metrics window), or give up.
ok=0
i=0
while [ "$i" -lt 150 ]; do
  if "$dir/tools/health_probe" "$sock" /metrics > "$metrics" 2> /dev/null \
     && grep -q 'pipedream_runtime_stage0_bubble_frac' "$metrics" \
     && grep -q '^pipedream_' "$metrics"; then
    ok=1
    break
  fi
  if ! kill -0 "$demo_pid" 2> /dev/null; then
    break
  fi
  sleep 0.2
  i=$((i + 1))
done
if [ "$ok" -ne 1 ]; then
  echo "FAIL: health endpoint never served per-stage bubble fractions at $sock" >&2
  cat "$metrics" >&2 || true
  exit 1
fi
echo "   /metrics mid-run: Prometheus text with per-stage bubble_frac gauges"
"$dir/tools/health_probe" "$sock" /healthz > /dev/null
echo "   /healthz mid-run: 200 ok"

wait "$demo_pid"
trap - EXIT

echo "== trace file check"
# Valid JSON and the cross-stage flow grammar ("ph":"s"/"t"/"f" on category "mb").
python3 - "$trace" << 'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
phases = {e.get("ph") for e in events if e.get("cat") == "mb"}
assert {"s", "t", "f"} <= phases, f"missing flow phases: got {phases}"
print(f"   {sys.argv[1]}: {len(events)} events, mb flow chains present")
EOF

rm -f "$trace" "$metrics"
echo "obs check OK: TSan obs+serve labels, live health endpoint, Perfetto flow trace"
