#!/bin/sh
# Schedule check: builds the tree twice and runs the schedule, recovery, transport and
# serving suites in each build.
#
#   1. ThreadSanitizer, ctest labels `schedule|fault|elastic|transport|serve`. Every
#      schedule compiles to per-worker programs that one threaded worker loop executes
#      (src/schedule/program.h), so the schedule suites (compiler, simulator, bitwise
#      equivalence and determinism) and the recovery suites that recompile programs mid-run
#      (fault injection, fault fuzzing, elastic re-planning) are cross-thread surface. So
#      are the transport and serving suites: over sockets the threads that wait on an inbox
#      take turns reading its socket, and a blocked sender reads its destination's.
#   2. AddressSanitizer + UndefinedBehaviorSanitizer, the same labels: the same suites,
#      including the socket wire format (framing fuzz, conformance) and the serving loop.
#      Any UBSan report fails the run (halt_on_error).
#
# Usage: scripts/check_schedules.sh [build-dir]
#   (default: build-schedcheck; the ASan+UBSan build goes to <build-dir>-asan)
set -eu

cd "$(dirname "$0")/.."
dir="${1:-build-schedcheck}"

echo "== configure $dir (-DPIPEDREAM_SANITIZE=thread)"
cmake -B "$dir" -S . -DPIPEDREAM_SANITIZE=thread > /dev/null
cmake --build "$dir" -j "$(nproc)" > /dev/null

echo "== ctest -L 'schedule|fault|elastic|transport|serve' in $dir (TSan)"
(cd "$dir" && ctest -L 'schedule|fault|elastic|transport|serve' --output-on-failure)

echo "== configure $dir-asan (-DPIPEDREAM_SANITIZE=address,undefined)"
cmake -B "$dir-asan" -S . -DPIPEDREAM_SANITIZE=address,undefined > /dev/null
cmake --build "$dir-asan" -j "$(nproc)" > /dev/null

echo "== ctest -L 'schedule|fault|elastic|transport|serve' in $dir-asan (ASan+UBSan)"
(cd "$dir-asan" &&
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest -L 'schedule|fault|elastic|transport|serve' --output-on-failure)
