// Kernel-variant throughput + roofline: GFLOP/s for matmul and conv (forward and backward)
// across sizes, for every kernel variant (naive / blocked / simd), against the measured
// micro-kernel peak.
//
// Usage: bench_micro_kernels [--json]
//   --json   emit a machine-readable report (the format stored in BENCH_kernels.json)
//
// All variants are timed from the same binary with identical compiler flags, so the
// ratios isolate the algorithmic win (cache blocking, register tiling, packing, explicit
// SIMD, direct convolution) from compiler settings. Every case runs on one kernel thread
// (ScopedKernelBudget(1)), the thread MicroKernelPeakGflops measures its in-L1
// register-tile rate on, so pct_peak compares like with like: how much of one core's
// pure-FMA rate survives packing, cache traffic, and edge tiles. Timings use best-of-N to
// shed scheduler noise, and every variant of a case runs in one process so ratios hold
// under host frequency drift.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

constexpr KernelVariant kVariants[] = {KernelVariant::kNaive, KernelVariant::kBlocked,
                                       KernelVariant::kSimd};
constexpr int kNumVariants = 3;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps wall time of fn().
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    best = std::min(best, NowSeconds() - t0);
  }
  return best;
}

struct Row {
  std::string label;
  double flops = 0.0;
  double seconds[kNumVariants] = {0.0, 0.0, 0.0};

  double gflops(int v) const { return flops / seconds[v] / 1e9; }
  // Interleaving the variants' timing loops would be fairer still, but best-of-N per
  // variant back to back keeps each measurement inside one frequency regime in practice.
  double speedup_vs_naive(int v) const { return seconds[0] / seconds[v]; }
  double simd_over_blocked() const { return seconds[1] / seconds[2]; }
};

// Times fn() once per kernel variant (the variant is pinned around each run), on one
// kernel thread.
template <typename Fn>
void TimeVariants(int reps, Row* row, Fn&& fn) {
  ScopedKernelBudget one_thread(1);
  for (int v = 0; v < kNumVariants; ++v) {
    SetKernelVariantForTesting(kVariants[v]);
    row->seconds[v] = TimeBest(reps, fn);
  }
  ClearKernelVariantForTesting();
}

Row BenchMatmul(int64_t n, int reps) {
  Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c;
  InitGaussian(&a, 1.0f, &rng);
  InitGaussian(&b, 1.0f, &rng);
  Row row;
  row.label = "matmul " + std::to_string(n) + "x" + std::to_string(n) + "x" + std::to_string(n);
  row.flops = 2.0 * static_cast<double>(n) * n * n;
  TimeVariants(reps, &row, [&] { Gemm(a, false, b, false, 1.0f, 0.0f, &c); });
  return row;
}

// Appends the forward row of one conv case to `forward` and its backward row (weight, bias
// and input gradients: twice the forward's FLOPs) to `backward`.
void BenchConv(int64_t batch, int64_t ic, int64_t oc, int64_t hw, int64_t k, int reps,
               std::vector<Row>* forward, std::vector<Row>* backward) {
  ConvGeometry g;
  g.batch = batch;
  g.in_channels = ic;
  g.in_h = hw;
  g.in_w = hw;
  g.out_channels = oc;
  g.kernel = k;
  g.stride = 1;
  g.padding = k / 2;
  Rng rng(2);
  Tensor input({batch, ic, hw, hw});
  Tensor weight({oc, ic, k, k});
  Tensor bias({oc});
  Tensor out;
  InitGaussian(&input, 1.0f, &rng);
  InitGaussian(&weight, 0.1f, &rng);
  Row row;
  char label[128];
  std::snprintf(label, sizeof(label), "conv n%lld c%lld->%lld %lldx%lld k%lld",
                static_cast<long long>(batch), static_cast<long long>(ic),
                static_cast<long long>(oc), static_cast<long long>(hw),
                static_cast<long long>(hw), static_cast<long long>(k));
  row.label = label;
  row.flops = 2.0 * static_cast<double>(batch) * oc * g.out_h() * g.out_w() * ic * k * k;
  TimeVariants(reps, &row, [&] { Conv2dForward(input, weight, bias, g, &out); });
  forward->push_back(row);

  Tensor grad_out(out.shape());
  InitGaussian(&grad_out, 1.0f, &rng);
  Tensor grad_weight(weight.shape());
  Tensor grad_bias({oc});
  Tensor grad_input;
  row.flops *= 2.0;
  TimeVariants(reps, &row, [&] {
    Conv2dBackward(input, weight, grad_out, g, &grad_weight, &grad_bias, &grad_input);
  });
  backward->push_back(row);
}

int Main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  // Micro-kernel peaks first (cold caches elsewhere don't matter: panels live in L1).
  const double peak_blocked = MicroKernelPeakGflops(KernelVariant::kBlocked);
  const double peak_simd = MicroKernelPeakGflops(KernelVariant::kSimd);
  const double ceiling = std::max(peak_blocked, peak_simd);

  std::vector<Row> matmul;
  for (const int64_t n : {128, 256, 384, 512}) {
    matmul.push_back(BenchMatmul(n, n <= 256 ? 9 : 7));
  }
  std::vector<Row> conv;
  std::vector<Row> conv_backward;
  BenchConv(4, 8, 16, 32, 3, 7, &conv, &conv_backward);
  BenchConv(8, 16, 32, 32, 3, 5, &conv, &conv_backward);
  BenchConv(4, 32, 64, 16, 3, 5, &conv, &conv_backward);
  // The two conv layers of train_vgg_3-1's replicated stage, at its batch.
  BenchConv(32, 3, 8, 32, 3, 5, &conv, &conv_backward);
  BenchConv(32, 8, 16, 16, 3, 5, &conv, &conv_backward);

  if (json) {
    std::printf("{\n  \"note\": \"GFLOP/s, best-of-N wall time on one kernel thread "
                "(ScopedKernelBudget(1)); pct_peak is vs the measured single-thread in-L1 "
                "micro-kernel roofline\",\n");
    std::printf("  \"nproc\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"pool_threads\": %d,\n", ThreadPool::GlobalThreads());
    std::printf("  \"kernel_threads\": 1,\n");
    std::printf("  \"simd_isa\": \"%s\",\n", SimdKernelIsa());
    std::printf("  \"micro_kernel_peak_gflops\": {\"blocked\": %.3f, \"simd\": %.3f},\n",
                peak_blocked, peak_simd);
    std::printf("  \"roofline_ceiling_gflops\": %.3f,\n", ceiling);
    auto emit = [&](const char* key, const std::vector<Row>& rows, bool last) {
      std::printf("  \"%s\": [\n", key);
      for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        for (int v = 0; v < kNumVariants; ++v) {
          const bool end = i + 1 == rows.size() && v + 1 == kNumVariants;
          std::printf("    {\"case\": \"%s\", \"kernel_variant\": \"%s\", "
                      "\"gflops\": %.3f, \"pct_peak\": %.1f, \"speedup_vs_naive\": %.2f, "
                      "\"simd_over_blocked\": %.2f}%s\n",
                      r.label.c_str(), KernelVariantName(kVariants[v]), r.gflops(v),
                      100.0 * r.gflops(v) / ceiling, r.speedup_vs_naive(v),
                      r.simd_over_blocked(), end ? "" : ",");
        }
      }
      std::printf("  ]%s\n", last ? "" : ",");
    };
    emit("matmul", matmul, false);
    emit("conv_forward", conv, false);
    emit("conv_backward", conv_backward, true);
    std::printf("}\n");
    return 0;
  }

  std::printf("micro-kernel roofline: blocked %.1f GF/s, simd(%s) %.1f GF/s, ceiling %.1f GF/s "
              "(one kernel thread; nproc %u)\n\n",
              peak_blocked, SimdKernelIsa(), peak_simd, ceiling,
              std::thread::hardware_concurrency());
  std::printf("%-32s %10s %9s %7s %11s %11s\n", "case", "variant", "GF/s", "%peak",
              "vs naive", "simd/blkd");
  for (const auto& rows : {&matmul, &conv, &conv_backward}) {
    for (const Row& r : *rows) {
      for (int v = 0; v < kNumVariants; ++v) {
        std::printf("%-32s %10s %9.3f %6.1f%% %10.2fx %10.2fx\n",
                    (rows == &conv_backward ? r.label + " bwd" : r.label).c_str(),
                    KernelVariantName(kVariants[v]), r.gflops(v),
                    100.0 * r.gflops(v) / ceiling, r.speedup_vs_naive(v),
                    v == 2 ? r.simd_over_blocked() : 0.0);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace pipedream

int main(int argc, char** argv) { return pipedream::Main(argc, argv); }
