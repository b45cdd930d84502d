#!/bin/sh
# Kernel dispatch matrix check: builds the tree four times (native ISA, AVX2+FMA without
# -march=native, the portable baseline with no vector ISA, and native under ASan + UBSan)
# and runs the `kernels` and `graph` ctest labels in each. The AVX2 build compiles the simd
# variant's 6x16 ymm kernel and its masked-load column edges, which a native AVX-512 build
# never compiles. The `graph` label (layer, sequential, extended-layer and optimizer suites)
# runs the layers' parameters-only backward paths and the optimizers' host-ISA update loops,
# whose bits optim_test pins against a scalar loop, on every build.
# Within every run the label covers the remaining axes itself: ops_test/kernel_diff_test
# run under default dispatch, their *_naive duplicates re-run with PIPEDREAM_NAIVE_KERNELS=1,
# and the variant-pinned suites inside kernel_diff_test exercise blocked and simd
# explicitly (on the portable build "simd" is its scalar restrict fallback — the point of
# the second build: that fallback must keep compiling and passing without a vector ISA).
# The sanitizer build runs with PIPEDREAM_NO_POOL=1: pooled blocks are rounded up to
# power-of-two size classes, so a vector load past the end of a padded conv slab would
# stay inside its block and invisible to ASan; without the pool every scratch buffer is an
# exact-size heap block.
#
# Usage: scripts/check_kernels.sh [build-dir-prefix]   (default: build-kcheck)
set -eu

cd "$(dirname "$0")/.."
prefix="${1:-build-kcheck}"

# run_one <build-dir> <env assignments for ctest, or ""> [cmake args...]
run_one() {
  dir="$1"
  env_vars="$2"
  shift 2
  echo "== configure $dir ($*)"
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)" > /dev/null
  echo "== ${env_vars:+$env_vars }ctest -L 'kernels|graph' in $dir"
  (cd "$dir" && env $env_vars ctest -L 'kernels|graph' --output-on-failure)
}

run_one "${prefix}-native" ""
run_one "${prefix}-avx2" "" -DPIPEDREAM_PORTABLE=ON "-DCMAKE_CXX_FLAGS=-mavx2 -mfma"
run_one "${prefix}-portable" "" -DPIPEDREAM_PORTABLE=ON
run_one "${prefix}-asan" "PIPEDREAM_NO_POOL=1" -DPIPEDREAM_SANITIZE=address,undefined

echo "kernel matrix OK: native, AVX2, portable and ASan+UBSan builds, default and naive dispatch, graph and optimizer suites"
