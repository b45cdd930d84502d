// Differential kernel tests: the blocked/parallel kernels in ops.cc against the naive
// reference oracle in ref_ops.h, over randomized shapes, transposes, and alpha/beta
// combinations. Faster kernels are the classic way to silently break numerics; every
// kernel the hot path uses must stay within a tight tolerance of the retained naive
// implementation on shapes that stress the blocking (non-divisible block sizes, 1xN, Nx1,
// single-element). The Tensor class rejects zero-sized dimensions, so 1x1 is the smallest
// degenerate shape representable.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"
#include "src/tensor/ref_ops.h"

namespace pipedream {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng, float stddev = 1.0f) {
  Tensor t(std::move(shape));
  InitGaussian(&t, stddev, rng);
  return t;
}

// Max |a-b| must stay within `tol`, scaled by the reduction depth so long products get the
// accumulation slack float32 needs while indexing bugs (which produce O(1) errors on unit
// gaussians) still fail loudly.
void ExpectClose(const Tensor& got, const Tensor& want, int64_t reduce_depth,
                 const std::string& what) {
  ASSERT_TRUE(got.SameShape(want)) << what << ": shape mismatch";
  const double tol = 1e-5 * std::sqrt(static_cast<double>(std::max<int64_t>(reduce_depth, 1)))
                     * 10.0;
  EXPECT_LE(MaxAbsDiff(got, want), tol) << what;
}

struct GemmCase {
  int64_t m, k, n;
  bool ta, tb;
  float alpha, beta;
};

void RunGemmCase(const GemmCase& c, uint64_t seed) {
  Rng rng(seed);
  const Tensor a = RandomTensor(c.ta ? std::vector<int64_t>{c.k, c.m}
                                     : std::vector<int64_t>{c.m, c.k},
                                &rng);
  const Tensor b = RandomTensor(c.tb ? std::vector<int64_t>{c.n, c.k}
                                     : std::vector<int64_t>{c.k, c.n},
                                &rng);
  Tensor got;
  Tensor want;
  if (c.beta != 0.0f) {
    got = RandomTensor({c.m, c.n}, &rng);
    want = got;
  }
  Gemm(a, c.ta, b, c.tb, c.alpha, c.beta, &got);
  ref::Gemm(a, c.ta, b, c.tb, c.alpha, c.beta, &want);
  ExpectClose(got, want, c.k,
              "gemm m=" + std::to_string(c.m) + " k=" + std::to_string(c.k) + " n=" +
                  std::to_string(c.n) + (c.ta ? " ta" : "") + (c.tb ? " tb" : "") +
                  " alpha=" + std::to_string(c.alpha) + " beta=" + std::to_string(c.beta));
}

TEST(KernelDiffTest, GemmRandomizedShapes) {
  // Shapes straddle every blocking boundary: below one microkernel tile, non-multiples of
  // both tiles (blocked MR=6 / NR=16 / MC=96; simd MR=14 / NR=32 / MC=140 on AVX-512 and
  // 6 x 16 / 96 otherwise) and of KC=256 / NC=512, and just past the packing panels.
  const std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1},    {1, 7, 1},    {1, 300, 257}, {257, 300, 1}, {5, 17, 9},
      {6, 16, 16},  {7, 17, 17},  {64, 64, 64},  {95, 257, 97}, {96, 256, 512},
      {97, 258, 513}, {130, 70, 33}, {33, 513, 130},
  };
  uint64_t seed = 1;
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        RunGemmCase({s[0], s[1], s[2], ta, tb, 1.0f, 0.0f}, seed++);
      }
    }
  }
}

TEST(KernelDiffTest, GemmAlphaBeta) {
  uint64_t seed = 100;
  for (const auto& [alpha, beta] : std::vector<std::pair<float, float>>{
           {1.0f, 1.0f}, {0.5f, 0.0f}, {2.0f, 1.0f}, {-1.0f, 0.5f}, {0.25f, 2.0f}}) {
    RunGemmCase({70, 130, 90, false, false, alpha, beta}, seed++);
    RunGemmCase({70, 130, 90, true, true, alpha, beta}, seed++);
  }
}

TEST(KernelDiffTest, GemmFuzzedShapes) {
  Rng shape_rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    GemmCase c;
    c.m = 1 + static_cast<int64_t>(shape_rng.UniformInt(150));
    c.k = 1 + static_cast<int64_t>(shape_rng.UniformInt(300));
    c.n = 1 + static_cast<int64_t>(shape_rng.UniformInt(150));
    c.ta = shape_rng.UniformInt(2) == 1;
    c.tb = shape_rng.UniformInt(2) == 1;
    c.alpha = shape_rng.UniformInt(2) == 1 ? 1.0f : 0.5f;
    c.beta = shape_rng.UniformInt(2) == 1 ? 0.0f : 1.0f;
    RunGemmCase(c, 1000 + static_cast<uint64_t>(trial));
  }
}

ConvGeometry MakeGeometry(int64_t batch, int64_t ic, int64_t oc, int64_t h, int64_t w,
                          int64_t kernel, int64_t stride, int64_t padding) {
  ConvGeometry g;
  g.batch = batch;
  g.in_channels = ic;
  g.in_h = h;
  g.in_w = w;
  g.out_channels = oc;
  g.kernel = kernel;
  g.stride = stride;
  g.padding = padding;
  return g;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what << ": shape mismatch";
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)), 0)
      << what;
}

void RunConvCase(const ConvGeometry& g, uint64_t seed) {
  Rng rng(seed);
  const Tensor input = RandomTensor({g.batch, g.in_channels, g.in_h, g.in_w}, &rng);
  const Tensor weight = RandomTensor({g.out_channels, g.in_channels, g.kernel, g.kernel},
                                     &rng, 0.5f);
  const Tensor bias = RandomTensor({g.out_channels}, &rng);
  const std::string what = "conv b=" + std::to_string(g.batch) + " ic=" +
                           std::to_string(g.in_channels) + " oc=" +
                           std::to_string(g.out_channels) + " h=" + std::to_string(g.in_h) +
                           " k=" + std::to_string(g.kernel) + " s=" +
                           std::to_string(g.stride) + " p=" + std::to_string(g.padding);

  Tensor out_blocked;
  Tensor out_ref;
  Conv2dForward(input, weight, bias, g, &out_blocked);
  ref::Conv2dForward(input, weight, bias, g, &out_ref);
  const int64_t depth = g.in_channels * g.kernel * g.kernel;
  ExpectClose(out_blocked, out_ref, depth, what + " forward");

  const Tensor grad_out =
      RandomTensor({g.batch, g.out_channels, g.out_h(), g.out_w()}, &rng);
  Tensor gw_blocked(weight.shape());
  Tensor gb_blocked({g.out_channels});
  Tensor gi_blocked;
  Conv2dBackward(input, weight, grad_out, g, &gw_blocked, &gb_blocked, &gi_blocked);
  Tensor gw_ref(weight.shape());
  Tensor gb_ref({g.out_channels});
  Tensor gi_ref;
  ref::Conv2dBackward(input, weight, grad_out, g, &gw_ref, &gb_ref, &gi_ref);
  ExpectClose(gw_blocked, gw_ref, g.batch * g.out_h() * g.out_w(), what + " grad_weight");
  ExpectClose(gb_blocked, gb_ref, g.batch * g.out_h() * g.out_w(), what + " grad_bias");
  ExpectClose(gi_blocked, gi_ref, g.out_channels * g.kernel * g.kernel, what + " grad_input");

  // Both lowerings split work only over disjoint outputs, so the kernel budget must not
  // move a single bit.
  for (const int budget : {1, 4}) {
    ScopedKernelBudget scoped(budget);
    const std::string at = what + " at budget " + std::to_string(budget);
    Tensor out;
    Conv2dForward(input, weight, bias, g, &out);
    ExpectBitwiseEqual(out, out_blocked, at + " forward");
    Tensor gw(weight.shape());
    Tensor gb({g.out_channels});
    Tensor gi;
    Conv2dBackward(input, weight, grad_out, g, &gw, &gb, &gi);
    ExpectBitwiseEqual(gw, gw_blocked, at + " grad_weight");
    ExpectBitwiseEqual(gb, gb_blocked, at + " grad_bias");
    ExpectBitwiseEqual(gi, gi_blocked, at + " grad_input");
  }
}

TEST(KernelDiffTest, ConvConfigurations) {
  uint64_t seed = 1;
  // Degenerate and blocking-hostile geometries: 1x1 images, kernel == image, stride over
  // padding, single channels, and channel counts that are not tile multiples.
  RunConvCase(MakeGeometry(1, 1, 1, 1, 1, 1, 1, 0), seed++);
  RunConvCase(MakeGeometry(1, 1, 1, 3, 3, 3, 1, 0), seed++);
  RunConvCase(MakeGeometry(2, 1, 3, 5, 7, 3, 1, 1), seed++);
  RunConvCase(MakeGeometry(3, 2, 5, 9, 9, 3, 2, 1), seed++);
  RunConvCase(MakeGeometry(2, 3, 7, 8, 8, 5, 1, 2), seed++);
  RunConvCase(MakeGeometry(1, 4, 6, 11, 5, 3, 2, 0), seed++);
  RunConvCase(MakeGeometry(4, 8, 16, 16, 16, 3, 1, 1), seed++);
  RunConvCase(MakeGeometry(2, 16, 32, 12, 12, 3, 2, 1), seed++);
}

TEST(KernelDiffTest, ConvDirectPathEdges) {
  uint64_t seed = 3000;
  // Output widths around the 8-float vector and the 2-vector tile (k 3, padding 1 keeps
  // out_w == in_w).
  for (const int64_t w : {1, 7, 15, 16, 17, 31, 33}) {
    RunConvCase(MakeGeometry(2, 3, 5, 4, w, 3, 1, 1), seed++);
  }
  // Output channels around the 8-channel register block and the 4-channel last block; the
  // input channels are the data gradient's output channels, so they sweep it too.
  for (const int64_t c : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
    RunConvCase(MakeGeometry(2, 4, c, 6, 9, 3, 1, 1), seed++);
    RunConvCase(MakeGeometry(2, c, 4, 6, 9, 3, 1, 1), seed++);
  }
  // Kernels 1, 3 and 5: padding 0 .. k-1 takes the direct path; padding k and stride 2
  // take im2col.
  for (const int64_t k : {1, 3, 5}) {
    for (int64_t pad = 0; pad <= k; ++pad) {
      RunConvCase(MakeGeometry(2, 3, 6, 7, 10, k, 1, pad), seed++);
    }
    RunConvCase(MakeGeometry(2, 3, 6, 7, 10, k, 2, k / 2), seed++);
  }
}

TEST(KernelDiffTest, ConvFuzzedGeometries) {
  Rng shape_rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t kernel = 1 + static_cast<int64_t>(shape_rng.UniformInt(4));
    const int64_t pad = static_cast<int64_t>(shape_rng.UniformInt(static_cast<uint64_t>(kernel)));
    const int64_t h = kernel + static_cast<int64_t>(shape_rng.UniformInt(12));
    const int64_t w = kernel + static_cast<int64_t>(shape_rng.UniformInt(12));
    const ConvGeometry g = MakeGeometry(
        1 + static_cast<int64_t>(shape_rng.UniformInt(3)),
        1 + static_cast<int64_t>(shape_rng.UniformInt(7)),
        1 + static_cast<int64_t>(shape_rng.UniformInt(9)), h, w, kernel,
        1 + static_cast<int64_t>(shape_rng.UniformInt(2)), pad);
    RunConvCase(g, 2000 + static_cast<uint64_t>(trial));
  }
}

TEST(KernelDiffTest, Reductions) {
  Rng rng(3);
  for (const int64_t n : {1, 7, 1000, (1 << 15) - 1, 1 << 15, (1 << 15) + 1, 200000}) {
    const Tensor t = RandomTensor({n}, &rng);
    EXPECT_NEAR(Sum(t), ref::Sum(t), 1e-6 * std::sqrt(static_cast<double>(n)) + 1e-9)
        << "sum n=" << n;
    EXPECT_NEAR(Norm(t), ref::Norm(t), 1e-6 * std::sqrt(static_cast<double>(n)) + 1e-9)
        << "norm n=" << n;
  }
}

TEST(KernelDiffTest, ColumnSumsAndSoftmax) {
  Rng rng(5);
  for (const auto& [m, n] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {1, 64}, {64, 1}, {300, 7}, {2000, 33}}) {
    const Tensor mat = RandomTensor({m, n}, &rng);
    Tensor got({n});
    Tensor want({n});
    AccumulateColumnSums(mat, &got);
    ref::AccumulateColumnSums(mat, &want);
    ExpectClose(got, want, m, "colsums m=" + std::to_string(m));

    Tensor probs_got;
    Tensor probs_want;
    SoftmaxRows(mat, &probs_got);
    ref::SoftmaxRows(mat, &probs_want);
    // Row-independent math is identical to the reference, so exact equality holds.
    EXPECT_EQ(MaxAbsDiff(probs_got, probs_want), 0.0) << "softmax m=" << m << " n=" << n;
  }
}

TEST(KernelDiffTest, ElementwiseOps) {
  Rng rng(9);
  for (const int64_t n : {1, 100, (1 << 15) + 17, 100000}) {
    const Tensor a = RandomTensor({n}, &rng);
    const Tensor b = RandomTensor({n}, &rng);
    // Elementwise chunks write disjoint slices of identical expressions, so results are
    // exact regardless of chunking.
    Tensor add;
    Add(a, b, &add);
    Tensor sub;
    Sub(a, b, &sub);
    Tensor mul;
    Mul(a, b, &mul);
    Tensor axpy = a;
    Axpy(0.5f, b, &axpy);
    for (const int64_t i : {int64_t{0}, n / 2, n - 1}) {
      EXPECT_EQ(add[i], a[i] + b[i]);
      EXPECT_EQ(sub[i], a[i] - b[i]);
      EXPECT_EQ(mul[i], a[i] * b[i]);
      EXPECT_EQ(axpy[i], a[i] + 0.5f * b[i]);
    }
  }
}

// --------------------------------------------------------------------------------------
// Variant-parameterized differentials: the same oracle checks, but with the kernel pinned
// via SetKernelVariantForTesting so both register-tiled implementations are exercised in
// every build regardless of which one dispatch would pick. The pin outranks
// PIPEDREAM_NAIVE_KERNELS, so these tests still cover blocked/simd in the env-naive ctest
// duplicates.

class KernelVariantDiffTest : public ::testing::TestWithParam<KernelVariant> {
 protected:
  void SetUp() override { SetKernelVariantForTesting(GetParam()); }
  void TearDown() override { ClearKernelVariantForTesting(); }
};

TEST_P(KernelVariantDiffTest, GemmTileBoundaries) {
  // Shapes straddle the simd kernel's tiling (MR=14 / NR=32 / MC=140 / KC=256 / NC=512 on
  // avx512, 6x16 on avx2 and the scalar fallback) as well as the blocked kernel's 6x16:
  // one below, exactly at, and one past each boundary, plus both-kernels-edge combos.
  const std::vector<std::array<int64_t, 3>> shapes = {
      {13, 100, 31},  {14, 256, 32},  {15, 257, 33},  {6, 64, 16},   {7, 65, 17},
      {5, 16, 15},    {28, 300, 64},  {139, 300, 63}, {140, 512, 96}, {141, 100, 97},
      {42, 513, 511}, {20, 511, 513},
  };
  uint64_t seed = 5000;
  for (const auto& s : shapes) {
    RunGemmCase({s[0], s[1], s[2], false, false, 1.0f, 0.0f}, seed++);
  }
}

TEST_P(KernelVariantDiffTest, GemmTransposeAlphaBeta) {
  uint64_t seed = 6000;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const auto& [alpha, beta] : std::vector<std::pair<float, float>>{
               {1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 2.0f}, {-1.0f, 0.5f}}) {
        RunGemmCase({43, 170, 77, ta, tb, alpha, beta}, seed++);
        RunGemmCase({14, 256, 32, ta, tb, alpha, beta}, seed++);
      }
    }
  }
}

TEST_P(KernelVariantDiffTest, GemmAlignmentEdges) {
  // Odd leading dimensions put successive C/B rows off 64-byte boundaries, so the
  // direct-to-C epilogue's unaligned loads/stores and the edge path's clipped writeback
  // both run against misaligned rows. m one past a tile keeps a 1-row edge strip live.
  uint64_t seed = 7000;
  for (const int64_t n : {1, 2, 3, 31, 33, 63, 65}) {
    RunGemmCase({15, 64, n, false, false, 1.0f, 0.0f}, seed++);
    RunGemmCase({7, 33, n, false, true, 1.0f, 1.0f}, seed++);
  }
}

TEST_P(KernelVariantDiffTest, ConvGeometries) {
  uint64_t seed = 8000;
  RunConvCase(MakeGeometry(2, 3, 14, 9, 9, 3, 1, 1), seed++);
  RunConvCase(MakeGeometry(1, 4, 15, 11, 5, 3, 2, 0), seed++);
  RunConvCase(MakeGeometry(4, 8, 32, 16, 16, 3, 1, 1), seed++);
  RunConvCase(MakeGeometry(2, 16, 33, 12, 12, 3, 2, 1), seed++);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelVariantDiffTest,
                         ::testing::Values(KernelVariant::kBlocked, KernelVariant::kSimd),
                         [](const ::testing::TestParamInfo<KernelVariant>& param) {
                           return KernelVariantName(param.param);
                         });

// The simd kernel's register tile and K block: 14 x 32 on AVX-512, 6 x 16 on AVX2 and the
// scalar fallback, KC = 256 everywhere.
struct SimdTile {
  int64_t mr, nr, kc;
};

SimdTile ActiveSimdTile() {
  return std::strcmp(SimdKernelIsa(), "avx512") == 0 ? SimdTile{14, 32, 256}
                                                     : SimdTile{6, 16, 256};
}

// The first `rows` rows of op(t), stored like t: rows of t, or columns of t when `transpose`.
Tensor FirstRows(const Tensor& t, bool transpose, int64_t rows) {
  const int64_t cols = transpose ? t.dim(0) : t.dim(1);
  Tensor out(transpose ? std::vector<int64_t>{cols, rows} : std::vector<int64_t>{rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (transpose) {
        out.data()[j * rows + i] = t.data()[j * t.dim(1) + i];
      } else {
        out.data()[i * cols + j] = t.data()[i * cols + j];
      }
    }
  }
  return out;
}

// A row of C must not depend on how many rows its product has: the first m rows of a
// product on m + 2 MR rows (packed) must equal, bit for bit, the product of those m rows
// alone (one strip for m <= MR, run unpacked). Pipelined serving relies on it when it
// reproduces a forward over other row counts. alpha = 1 keeps the two epilogues equal:
// fma(1, acc, C) rounds exactly like C + 1 * acc.
TEST(KernelDiffTest, SimdRowBitsDoNotDependOnProductHeight) {
  SetKernelVariantForTesting(KernelVariant::kSimd);
  const SimdTile tile = ActiveSimdTile();
  const int64_t max_rows = 3 * tile.mr + 1;
  Rng rng(9000);
  int compared = 0;
  for (const int64_t n : {int64_t{1}, tile.nr - 1, tile.nr, tile.nr + 1, int64_t{256}}) {
    for (const int64_t k : {int64_t{1}, tile.kc - 1, tile.kc, tile.kc + 1}) {
      const Tensor b = RandomTensor({k, n}, &rng);
      const Tensor c0 = RandomTensor({max_rows, n}, &rng);
      for (const bool ta : {false, true}) {
        const Tensor a = RandomTensor(
            ta ? std::vector<int64_t>{k, max_rows} : std::vector<int64_t>{max_rows, k}, &rng);
        for (int64_t m = 1; m <= tile.mr + 1; ++m) {
          // Both products must run the kernel: the taller one packed, the shorter one as
          // one strip or packed. Products under 32^3 that are not one strip run the
          // reference loop instead.
          const int64_t tall = m + 2 * tile.mr;
          if (tall * n * k <= 32 * 32 * 32 || (m > tile.mr && m * n * k <= 32 * 32 * 32)) {
            continue;
          }
          for (const float beta : {0.0f, 1.0f}) {
            Tensor c_tall = FirstRows(c0, false, tall);
            Tensor c_short = FirstRows(c0, false, m);
            Gemm(FirstRows(a, ta, tall), ta, b, false, 1.0f, beta, &c_tall);
            Gemm(FirstRows(a, ta, m), ta, b, false, 1.0f, beta, &c_short);
            EXPECT_EQ(std::memcmp(c_short.data(), c_tall.data(),
                                  static_cast<size_t>(m * n) * sizeof(float)),
                      0)
                << "m=" << m << " n=" << n << " k=" << k << (ta ? " ta" : "")
                << " beta=" << beta;
            ++compared;
          }
        }
      }
    }
  }
  ClearKernelVariantForTesting();
  EXPECT_GT(compared, 0);
}

// A null grad_input (the input stage's parameters-only backward) must leave the weight and
// bias gradients bit-identical to the call that also computes the data gradient, on every
// variant and both lowerings, including accumulation into gradients that are not zero.
TEST(KernelDiffTest, ConvBackwardWithoutInputGradKeepsParamBits) {
  const std::vector<ConvGeometry> geometries = {
      MakeGeometry(2, 3, 14, 9, 9, 3, 1, 1),     // direct: stride 1, padding < kernel
      MakeGeometry(3, 5, 9, 11, 7, 5, 1, 2),     // direct, channels off the register block
      MakeGeometry(2, 3, 10, 12, 12, 3, 2, 1),   // im2col: stride 2
      MakeGeometry(1, 4, 17, 10, 10, 3, 1, 3)};  // im2col: padding == kernel
  for (const KernelVariant variant :
       {KernelVariant::kNaive, KernelVariant::kBlocked, KernelVariant::kSimd}) {
    SetKernelVariantForTesting(variant);
    uint64_t seed = 9000;
    for (const ConvGeometry& g : geometries) {
      Rng rng(seed++);
      const Tensor input = RandomTensor({g.batch, g.in_channels, g.in_h, g.in_w}, &rng);
      const Tensor weight =
          RandomTensor({g.out_channels, g.in_channels, g.kernel, g.kernel}, &rng, 0.5f);
      const Tensor grad_out =
          RandomTensor({g.batch, g.out_channels, g.out_h(), g.out_w()}, &rng);
      const Tensor gw_start = RandomTensor(weight.shape(), &rng);
      const Tensor gb_start = RandomTensor({g.out_channels}, &rng);
      for (const bool accumulate : {false, true}) {
        const std::string what = std::string(KernelVariantName(variant)) + " conv ic=" +
                                 std::to_string(g.in_channels) + " s=" +
                                 std::to_string(g.stride) + " p=" + std::to_string(g.padding) +
                                 (accumulate ? " accumulating" : " from zero");
        Tensor gw_full = accumulate ? gw_start : Tensor(weight.shape());
        Tensor gb_full = accumulate ? gb_start : Tensor({g.out_channels});
        Tensor gi;
        Conv2dBackward(input, weight, grad_out, g, &gw_full, &gb_full, &gi);
        Tensor gw_params = accumulate ? gw_start : Tensor(weight.shape());
        Tensor gb_params = accumulate ? gb_start : Tensor({g.out_channels});
        Conv2dBackward(input, weight, grad_out, g, &gw_params, &gb_params, nullptr);
        ExpectBitwiseEqual(gw_params, gw_full, what + " grad_weight");
        ExpectBitwiseEqual(gb_params, gb_full, what + " grad_bias");
      }
    }
  }
  ClearKernelVariantForTesting();
}

// The PIPEDREAM_NAIVE_KERNELS escape hatch must reproduce the reference bit-for-bit.
TEST(KernelDiffTest, NaiveSwitchRoutesToReference) {
  Rng rng(13);
  const Tensor a = RandomTensor({70, 90}, &rng);
  const Tensor b = RandomTensor({90, 110}, &rng);
  Tensor want;
  ref::Gemm(a, false, b, false, 1.0f, 0.0f, &want);

  SetNaiveKernelsForTesting(true);
  EXPECT_TRUE(UseNaiveKernels());
  Tensor got;
  Gemm(a, false, b, false, 1.0f, 0.0f, &got);
  SetNaiveKernelsForTesting(false);

  EXPECT_EQ(MaxAbsDiff(got, want), 0.0);
  // And the blocked path is genuinely different code (it may differ in low bits).
  EXPECT_FALSE(UseNaiveKernels());
}

// Dispatch precedence and introspection. Runs last in the file: it flips the process-wide
// naive override, and every earlier test must see the environment's choice untouched so
// the env-naive ctest duplicates genuinely exercise the naive route.
TEST(KernelDispatchTest, VariantPrecedenceAndIntrospection) {
  // A pinned variant outranks the PIPEDREAM_NAIVE_KERNELS switch.
  for (const KernelVariant v :
       {KernelVariant::kNaive, KernelVariant::kBlocked, KernelVariant::kSimd}) {
    SetKernelVariantForTesting(v);
    EXPECT_EQ(ActiveKernelVariant(), v) << KernelVariantName(v);
    EXPECT_EQ(UseNaiveKernels(), v == KernelVariant::kNaive);
  }
  // SetNaiveKernelsForTesting(true) outranks even a pinned variant...
  SetKernelVariantForTesting(KernelVariant::kSimd);
  SetNaiveKernelsForTesting(true);
  EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kNaive);
  // ...and (false) restores the pin, then defeats any naive environment once unpinned.
  SetNaiveKernelsForTesting(false);
  EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kSimd);
  ClearKernelVariantForTesting();
  EXPECT_NE(ActiveKernelVariant(), KernelVariant::kNaive);

  EXPECT_STREQ(KernelVariantName(KernelVariant::kNaive), "naive");
  EXPECT_STREQ(KernelVariantName(KernelVariant::kBlocked), "blocked");
  EXPECT_STREQ(KernelVariantName(KernelVariant::kSimd), "simd");
  // The simd variant always exists; without a vector ISA it reports its scalar fallback.
  const std::string isa = SimdKernelIsa();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "scalar") << isa;

  // Both micro-kernels sustain a measurable in-L1 rate (short window: this is a liveness
  // check, not the roofline measurement — bench_micro_kernels owns that).
  EXPECT_GT(MicroKernelPeakGflops(KernelVariant::kBlocked, /*min_seconds=*/0.01), 0.0);
  EXPECT_GT(MicroKernelPeakGflops(KernelVariant::kSimd, /*min_seconds=*/0.01), 0.0);
}

}  // namespace
}  // namespace pipedream
