#!/bin/sh
# Schedule check: builds the tree under ThreadSanitizer and runs the `schedule`, `fault`,
# and `elastic` ctest labels in it. Every schedule compiles to per-worker programs that
# one threaded worker loop executes (src/schedule/program.h), so the schedule suites
# (compiler, simulator, bitwise equivalence and determinism) and the recovery suites that
# recompile programs mid-run (fault injection, fault fuzzing, elastic re-planning) are the
# cross-thread surface this covers.
#
# Usage: scripts/check_schedules.sh [build-dir]   (default: build-schedcheck)
set -eu

cd "$(dirname "$0")/.."
dir="${1:-build-schedcheck}"

echo "== configure $dir (-DPIPEDREAM_SANITIZE=thread)"
cmake -B "$dir" -S . -DPIPEDREAM_SANITIZE=thread > /dev/null
cmake --build "$dir" -j "$(nproc)" > /dev/null

echo "== ctest -L 'schedule|fault|elastic' in $dir (TSan)"
(cd "$dir" && ctest -L 'schedule|fault|elastic' --output-on-failure)
