#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/env.h"
#include "src/common/thread_pool.h"
#include "src/tensor/pool.h"
#include "src/tensor/ref_ops.h"

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

namespace pipedream {
namespace {

// ---------------------------------------------------------------------------------------
// Kernel dispatch. Three variants share the ops API: the naive reference oracle
// (ref_ops.cc), the cache-blocked compiler-vectorized kernel, and the explicit-SIMD
// register-tiled kernel. PIPEDREAM_NAIVE_KERNELS=1 (or a test hook) forces the oracle;
// the default is the best variant the build supports.
// ---------------------------------------------------------------------------------------

std::atomic<int> g_naive_override{-1};    // -1 = follow the environment
std::atomic<int> g_variant_override{-1};  // -1 = the default variant, else KernelVariant

bool NaiveKernelsFromEnv() {
  static const bool value =
      ParseEnvSwitch("PIPEDREAM_NAIVE_KERNELS", std::getenv("PIPEDREAM_NAIVE_KERNELS"));
  return value;
}

KernelVariant DefaultKernelVariant() {
#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
  return KernelVariant::kSimd;
#else
  // The simd variant's scalar fallback stays available for testing, but the blocked
  // kernel's compiler-vectorized tile is the better default without a vector ISA.
  return KernelVariant::kBlocked;
#endif
}

// ---------------------------------------------------------------------------------------
// Packed GEMM.
//
// Goto-style three-level blocking: B panels of KC x NC are packed into NR-wide column
// strips, A blocks of MC x KC into MR-tall row strips, and a register-tiled MR x NR
// microkernel accumulates over the packed K block. Packing normalizes both transpose
// flags, so one microkernel serves all four operand layouts. Work is parallelized over
// the MC row blocks of C: every block owns a disjoint row slice of the output and the K
// loop stays sequential, so results are bitwise independent of the thread count.
//
// Two kernels drive the shared macro loop: the blocked kernel (6x16 tile, GCC/Clang
// vector extensions) and the simd kernel (explicit intrinsics sized to the widest ISA
// the build targets, with a direct-to-C epilogue for full interior tiles). The simd
// kernel runs products whose A fits in one MR strip unpacked, on the same tile
// (RunsOneStrip).
// ---------------------------------------------------------------------------------------

constexpr int64_t kMr = 6;    // blocked microkernel rows (register tiling)
constexpr int64_t kNr = 16;   // blocked microkernel columns (two 8-float vectors)
constexpr int64_t kMc = 96;   // rows of C per packed A block (multiple of kMr)
constexpr int64_t kKc = 256;  // K extent of packed blocks
constexpr int64_t kNc = 512;  // columns of C per packed B panel (multiple of kNr)

// Products below this FLOP count that the one-strip rule does not take (RunsOneStrip) skip
// packing entirely; the naive loops win there.
constexpr int64_t kTinyGemmElems = 32 * 32 * 32;

inline float OpAt(const float* p, int64_t ld, bool transpose, int64_t r, int64_t c) {
  return transpose ? p[c * ld + r] : p[r * ld + c];
}

// Packs rows [i0, i0+m_blk) x cols [k0, k0+kc) of op(A) into MR-tall strips:
// buf[strip][kk][r], zero-padded to a whole strip.
template <int64_t MR>
void PackA(const float* a, int64_t lda, bool ta, int64_t i0, int64_t m_blk, int64_t k0,
           int64_t kc, float* buf) {
  const int64_t strips = (m_blk + MR - 1) / MR;
  for (int64_t s = 0; s < strips; ++s) {
    const int64_t rows = std::min(MR, m_blk - s * MR);
    float* dst = buf + s * kc * MR;
    if (ta && rows == MR) {
      // Fast path: a full strip of op(A)'s k-major data is MR contiguous floats per k.
      const float* src = a + k0 * lda + i0 + s * MR;
      for (int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst + kk * MR, src + kk * lda, MR * sizeof(float));
      }
      continue;
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t r = 0; r < rows; ++r) {
        dst[kk * MR + r] = OpAt(a, lda, ta, i0 + s * MR + r, k0 + kk);
      }
      for (int64_t r = rows; r < MR; ++r) {
        dst[kk * MR + r] = 0.0f;
      }
    }
  }
}

// Packs rows [k0, k0+kc) x cols [j0, j0+n_blk) of op(B) into NR-wide strips:
// buf[strip][kk][j], zero-padded to a whole strip.
template <int64_t NR>
void PackB(const float* b, int64_t ldb, bool tb, int64_t k0, int64_t kc, int64_t j0,
           int64_t n_blk, float* buf) {
  const int64_t strips = (n_blk + NR - 1) / NR;
  for (int64_t s = 0; s < strips; ++s) {
    const int64_t cols = std::min(NR, n_blk - s * NR);
    float* dst = buf + s * kc * NR;
    if (!tb && cols == NR) {
      // Fast path: op(B) rows are contiguous NR-float runs.
      const float* src = b + k0 * ldb + j0 + s * NR;
      for (int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst + kk * NR, src + kk * ldb, NR * sizeof(float));
      }
      continue;
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t j = 0; j < cols; ++j) {
        dst[kk * NR + j] = OpAt(b, ldb, tb, k0 + kk, j0 + s * NR + j);
      }
      for (int64_t j = cols; j < NR; ++j) {
        dst[kk * NR + j] = 0.0f;
      }
    }
  }
}

// acc[MR][NR] = sum_k apanel[k][MR] (x) bpanel[k][NR].
//
// The accumulator tile lives in named vector variables — 12 8-float vectors for the
// 6x16 tile — because an indexed local array reliably ends up in memory instead of
// registers, which costs ~10x. GCC/Clang vector extensions compile to broadcast-FMA
// sequences on any SIMD ISA (and to scalar code elsewhere).
typedef float Vec8 __attribute__((vector_size(32)));
constexpr int64_t kLanes = 8;  // floats per Vec8

inline Vec8 LoadU(const float* p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU(float* p, Vec8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline Vec8 Splat(float x) { return Vec8{x, x, x, x, x, x, x, x}; }

// The first `count` (< 8) lanes of p, zeros after; touches no memory past p + count.
inline Vec8 LoadPartial(const float* p, int64_t count) {
  Vec8 v{};
  __builtin_memcpy(&v, p, static_cast<size_t>(count) * sizeof(float));
  return v;
}

// Writes the first `count` (<= 8) lanes of v to p.
inline void StorePartial(float* p, Vec8 v, int64_t count) {
  __builtin_memcpy(p, &v, static_cast<size_t>(count) * sizeof(float));
}

// Lane sum in a fixed pairwise order.
inline float HorizontalSum(Vec8 v) {
  return ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
}

inline void MicroKernel(int64_t kc, const float* __restrict__ apanel,
                        const float* __restrict__ bpanel, float* __restrict__ acc) {
  Vec8 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const Vec8 b0 = LoadU(bpanel + kk * kNr);
    const Vec8 b1 = LoadU(bpanel + kk * kNr + 8);
    const float* a = apanel + kk * kMr;
    Vec8 av;
    av = Splat(a[0]); c00 += av * b0; c01 += av * b1;
    av = Splat(a[1]); c10 += av * b0; c11 += av * b1;
    av = Splat(a[2]); c20 += av * b0; c21 += av * b1;
    av = Splat(a[3]); c30 += av * b0; c31 += av * b1;
    av = Splat(a[4]); c40 += av * b0; c41 += av * b1;
    av = Splat(a[5]); c50 += av * b0; c51 += av * b1;
  }
  StoreU(acc + 0 * kNr, c00); StoreU(acc + 0 * kNr + 8, c01);
  StoreU(acc + 1 * kNr, c10); StoreU(acc + 1 * kNr + 8, c11);
  StoreU(acc + 2 * kNr, c20); StoreU(acc + 2 * kNr + 8, c21);
  StoreU(acc + 3 * kNr, c30); StoreU(acc + 3 * kNr + 8, c31);
  StoreU(acc + 4 * kNr, c40); StoreU(acc + 4 * kNr + 8, c41);
  StoreU(acc + 5 * kNr, c50); StoreU(acc + 5 * kNr + 8, c51);
}

// ---------------------------------------------------------------------------------------
// Explicit-SIMD micro-kernels. Tile sizes follow the register file of the widest ISA the
// build targets; the scalar fallback keeps the same interface so the macro loop and the
// dispatch table never change shape. One accumulate loop per ISA serves two callers:
//   Packed: the macro loop's MR x NR tile over packed strips, with two entry points —
//     Edge:   acc[MR][NR] = A-strip @ B-strip over kc (acc is fully written), used for
//             partial tiles whose writeback must be clipped to rows x cols.
//     Direct: C[MR][NR] += alpha * A-strip @ B-strip at row stride ldc, used for full
//             interior tiles — skips the acc spill and the scalar writeback loop.
//   One strip (SimdOneStripTile): a ROWS x cols tile (ROWS <= MR, cols <= NR) read straight
//     from op(A) and B where they lie, B's column edge masked. Its epilogue is Direct's for
//     a full MR x NR tile and Edge's `C += alpha * acc` for any other, so every C element
//     gets the same FMA sequence and the same rounding as in the packed macro loop.
// Operand addressing: op(A)[r][kk] = a[r * a_rs + kk * a_ks] and B row kk starts at
// b + kk * ldb. A packed strip is (a_rs, a_ks, ldb) = (1, MR, NR).
// ---------------------------------------------------------------------------------------

#if defined(__AVX512F__)

constexpr int64_t kSimdMr = 14;   // 28 zmm accumulators + 2 B vectors + 1 broadcast = 31
constexpr int64_t kSimdNr = 32;   // two 16-float zmm vectors
constexpr int64_t kSimdMc = 140;  // multiple of kSimdMr
constexpr int64_t kSimdKc = 256;
constexpr int64_t kSimdNc = 512;  // multiple of kSimdNr
constexpr char kSimdIsaName[] = "avx512";

// Lanes [0, cols) of a 16-float vector.
inline __mmask16 ColumnMask(int64_t cols) {
  return cols >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << std::max<int64_t>(cols, 0)) - 1u);
}

// c[r] = op(A)[r][0, kc) @ B[0, kc)[0, NR) for r < ROWS. With kEdge, B's lanes at or past
// `cols` load as zero and touch no memory.
//
// The accumulator tile is an indexed array, unlike the blocked kernel's named vectors:
// with constant trip counts GCC/Clang fully unroll these loops and promote all 28
// accumulators to zmm registers (verified against the named-variable form).
template <int64_t ROWS, bool kEdge>
inline void SimdAccumulate(int64_t kc, const float* __restrict__ a, int64_t a_rs,
                           int64_t a_ks, const float* __restrict__ b, int64_t ldb,
                           int64_t cols, __m512 c[kSimdMr][2]) {
  const __mmask16 m0 = ColumnMask(cols);
  const __mmask16 m1 = ColumnMask(cols - 16);
  for (int64_t r = 0; r < ROWS; ++r) {
    c[r][0] = _mm512_setzero_ps();
    c[r][1] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* bk = b + kk * ldb;
    const __m512 b0 = kEdge ? _mm512_maskz_loadu_ps(m0, bk) : _mm512_loadu_ps(bk);
    const __m512 b1 = kEdge ? _mm512_maskz_loadu_ps(m1, bk + 16) : _mm512_loadu_ps(bk + 16);
    const float* ak = a + kk * a_ks;
    for (int64_t r = 0; r < ROWS; ++r) {
      const __m512 av = _mm512_set1_ps(ak[r * a_rs]);
      c[r][0] = _mm512_fmadd_ps(av, b0, c[r][0]);
      c[r][1] = _mm512_fmadd_ps(av, b1, c[r][1]);
    }
  }
}

// C[MR][NR] = fma(alpha, c, C): Direct's epilogue.
inline void SimdFoldFull(__m512 c[kSimdMr][2], float alpha, float* cblk, int64_t ldc) {
  const __m512 va = _mm512_set1_ps(alpha);
  for (int64_t r = 0; r < kSimdMr; ++r) {
    float* p = cblk + r * ldc;
    _mm512_storeu_ps(p, _mm512_fmadd_ps(va, c[r][0], _mm512_loadu_ps(p)));
    _mm512_storeu_ps(p + 16, _mm512_fmadd_ps(va, c[r][1], _mm512_loadu_ps(p + 16)));
  }
}

void SimdMicroKernel(int64_t kc, const float* __restrict__ apanel,
                     const float* __restrict__ bpanel, float* __restrict__ acc) {
  __m512 c[kSimdMr][2];
  SimdAccumulate<kSimdMr, false>(kc, apanel, 1, kSimdMr, bpanel, kSimdNr, kSimdNr, c);
  for (int64_t r = 0; r < kSimdMr; ++r) {
    _mm512_storeu_ps(acc + r * kSimdNr, c[r][0]);
    _mm512_storeu_ps(acc + r * kSimdNr + 16, c[r][1]);
  }
}

void SimdMicroKernelDirect(int64_t kc, const float* __restrict__ apanel,
                           const float* __restrict__ bpanel, float alpha,
                           float* __restrict__ cblk, int64_t ldc) {
  __m512 c[kSimdMr][2];
  SimdAccumulate<kSimdMr, false>(kc, apanel, 1, kSimdMr, bpanel, kSimdNr, kSimdNr, c);
  SimdFoldFull(c, alpha, cblk, ldc);
}

template <int64_t ROWS>
void SimdOneStripTile(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks, const float* b,
                      int64_t ldb, int64_t cols, float alpha, float* cblk, int64_t ldc) {
  __m512 c[kSimdMr][2];
  if (cols < kSimdNr) {
    SimdAccumulate<ROWS, true>(kc, a, a_rs, a_ks, b, ldb, cols, c);
  } else {
    SimdAccumulate<ROWS, false>(kc, a, a_rs, a_ks, b, ldb, cols, c);
    if constexpr (ROWS == kSimdMr) {
      SimdFoldFull(c, alpha, cblk, ldc);
      return;
    }
  }
  // Edge's `C += alpha * acc`, written as the same vector expression so the compiler
  // contracts it (or not) exactly as it does the scalar writeback.
  const __mmask16 m0 = ColumnMask(cols);
  const __mmask16 m1 = ColumnMask(cols - 16);
  const __m512 va = _mm512_set1_ps(alpha);
  for (int64_t r = 0; r < ROWS; ++r) {
    float* p = cblk + r * ldc;
    _mm512_mask_storeu_ps(p, m0, _mm512_maskz_loadu_ps(m0, p) + va * c[r][0]);
    _mm512_mask_storeu_ps(p + 16, m1, _mm512_maskz_loadu_ps(m1, p + 16) + va * c[r][1]);
  }
}

#elif defined(__AVX2__) && defined(__FMA__)

constexpr int64_t kSimdMr = 6;   // 12 ymm accumulators + 2 B vectors + 1 broadcast = 15
constexpr int64_t kSimdNr = 16;  // two 8-float ymm vectors
constexpr int64_t kSimdMc = 96;
constexpr int64_t kSimdKc = 256;
constexpr int64_t kSimdNc = 512;
constexpr char kSimdIsaName[] = "avx2";

// Lanes [0, cols) of an 8-float vector, as the sign bits _mm256_maskload_ps reads.
inline __m256i ColumnMask(int64_t cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(std::min<int64_t>(cols, 8))),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// c[r] = op(A)[r][0, kc) @ B[0, kc)[0, NR) for r < ROWS. With kEdge, B's lanes at or past
// `cols` load as zero and touch no memory.
template <int64_t ROWS, bool kEdge>
inline void SimdAccumulate(int64_t kc, const float* __restrict__ a, int64_t a_rs,
                           int64_t a_ks, const float* __restrict__ b, int64_t ldb,
                           int64_t cols, __m256 c[kSimdMr][2]) {
  const __m256i m0 = ColumnMask(cols);
  const __m256i m1 = ColumnMask(cols - 8);
  for (int64_t r = 0; r < ROWS; ++r) {
    c[r][0] = _mm256_setzero_ps();
    c[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* bk = b + kk * ldb;
    const __m256 b0 = kEdge ? _mm256_maskload_ps(bk, m0) : _mm256_loadu_ps(bk);
    const __m256 b1 = kEdge ? _mm256_maskload_ps(bk + 8, m1) : _mm256_loadu_ps(bk + 8);
    const float* ak = a + kk * a_ks;
    for (int64_t r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(ak + r * a_rs);
      c[r][0] = _mm256_fmadd_ps(av, b0, c[r][0]);
      c[r][1] = _mm256_fmadd_ps(av, b1, c[r][1]);
    }
  }
}

// C[MR][NR] = fma(alpha, c, C): Direct's epilogue.
inline void SimdFoldFull(__m256 c[kSimdMr][2], float alpha, float* cblk, int64_t ldc) {
  const __m256 va = _mm256_set1_ps(alpha);
  for (int64_t r = 0; r < kSimdMr; ++r) {
    float* p = cblk + r * ldc;
    _mm256_storeu_ps(p, _mm256_fmadd_ps(va, c[r][0], _mm256_loadu_ps(p)));
    _mm256_storeu_ps(p + 8, _mm256_fmadd_ps(va, c[r][1], _mm256_loadu_ps(p + 8)));
  }
}

void SimdMicroKernel(int64_t kc, const float* __restrict__ apanel,
                     const float* __restrict__ bpanel, float* __restrict__ acc) {
  __m256 c[kSimdMr][2];
  SimdAccumulate<kSimdMr, false>(kc, apanel, 1, kSimdMr, bpanel, kSimdNr, kSimdNr, c);
  for (int64_t r = 0; r < kSimdMr; ++r) {
    _mm256_storeu_ps(acc + r * kSimdNr, c[r][0]);
    _mm256_storeu_ps(acc + r * kSimdNr + 8, c[r][1]);
  }
}

void SimdMicroKernelDirect(int64_t kc, const float* __restrict__ apanel,
                           const float* __restrict__ bpanel, float alpha,
                           float* __restrict__ cblk, int64_t ldc) {
  __m256 c[kSimdMr][2];
  SimdAccumulate<kSimdMr, false>(kc, apanel, 1, kSimdMr, bpanel, kSimdNr, kSimdNr, c);
  SimdFoldFull(c, alpha, cblk, ldc);
}

template <int64_t ROWS>
void SimdOneStripTile(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks, const float* b,
                      int64_t ldb, int64_t cols, float alpha, float* cblk, int64_t ldc) {
  __m256 c[kSimdMr][2];
  if (cols < kSimdNr) {
    SimdAccumulate<ROWS, true>(kc, a, a_rs, a_ks, b, ldb, cols, c);
  } else {
    SimdAccumulate<ROWS, false>(kc, a, a_rs, a_ks, b, ldb, cols, c);
    if constexpr (ROWS == kSimdMr) {
      SimdFoldFull(c, alpha, cblk, ldc);
      return;
    }
  }
  // Edge's `C += alpha * acc`, written as the same vector expression so the compiler
  // contracts it (or not) exactly as it does the scalar writeback.
  const __m256i m0 = ColumnMask(cols);
  const __m256i m1 = ColumnMask(cols - 8);
  const __m256 va = _mm256_set1_ps(alpha);
  for (int64_t r = 0; r < ROWS; ++r) {
    float* p = cblk + r * ldc;
    _mm256_maskstore_ps(p, m0, _mm256_maskload_ps(p, m0) + va * c[r][0]);
    _mm256_maskstore_ps(p + 8, m1, _mm256_maskload_ps(p + 8, m1) + va * c[r][1]);
  }
}

#else  // restrict-qualified scalar fallback (no vector ISA targeted)

constexpr int64_t kSimdMr = 6;
constexpr int64_t kSimdNr = 16;
constexpr int64_t kSimdMc = 96;
constexpr int64_t kSimdKc = 256;
constexpr int64_t kSimdNc = 512;
constexpr char kSimdIsaName[] = "scalar";

// acc[r][j] = op(A)[r][0, kc) @ B[0, kc)[j] for r < ROWS, j < cols; acc rows are NR apart.
template <int64_t ROWS>
inline void SimdAccumulate(int64_t kc, const float* __restrict__ a, int64_t a_rs,
                           int64_t a_ks, const float* __restrict__ b, int64_t ldb,
                           int64_t cols, float* __restrict__ acc) {
  for (int64_t r = 0; r < ROWS * kSimdNr; ++r) {
    acc[r] = 0.0f;
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* __restrict__ ak = a + kk * a_ks;
    const float* __restrict__ bk = b + kk * ldb;
    for (int64_t r = 0; r < ROWS; ++r) {
      const float av = ak[r * a_rs];
      float* __restrict__ c = acc + r * kSimdNr;
      for (int64_t j = 0; j < cols; ++j) {
        c[j] += av * bk[j];
      }
    }
  }
}

void SimdMicroKernel(int64_t kc, const float* __restrict__ apanel,
                     const float* __restrict__ bpanel, float* __restrict__ acc) {
  SimdAccumulate<kSimdMr>(kc, apanel, 1, kSimdMr, bpanel, kSimdNr, kSimdNr, acc);
}

void SimdMicroKernelDirect(int64_t kc, const float* __restrict__ apanel,
                           const float* __restrict__ bpanel, float alpha,
                           float* __restrict__ cblk, int64_t ldc) {
  float acc[kSimdMr * kSimdNr];
  SimdMicroKernel(kc, apanel, bpanel, acc);
  for (int64_t r = 0; r < kSimdMr; ++r) {
    float* __restrict__ p = cblk + r * ldc;
    for (int64_t j = 0; j < kSimdNr; ++j) {
      p[j] += alpha * acc[r * kSimdNr + j];
    }
  }
}

// Direct's and Edge's epilogues are the same loop here.
template <int64_t ROWS>
void SimdOneStripTile(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks, const float* b,
                      int64_t ldb, int64_t cols, float alpha, float* cblk, int64_t ldc) {
  float acc[ROWS * kSimdNr];
  SimdAccumulate<ROWS>(kc, a, a_rs, a_ks, b, ldb, cols, acc);
  for (int64_t r = 0; r < ROWS; ++r) {
    float* __restrict__ p = cblk + r * ldc;
    for (int64_t j = 0; j < cols; ++j) {
      p[j] += alpha * acc[r * kSimdNr + j];
    }
  }
}

#endif

using OneStripTileFn = void (*)(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks,
                                const float* b, int64_t ldb, int64_t cols, float alpha,
                                float* cblk, int64_t ldc);

template <size_t... R>
constexpr std::array<OneStripTileFn, sizeof...(R)> OneStripTiles(std::index_sequence<R...>) {
  return {&SimdOneStripTile<static_cast<int64_t>(R) + 1>...};
}

// C[m, n] += alpha * op(A) @ B for 1 <= m <= kSimdMr with no packing, on the tile of
// height m: each NR column strip runs its KC blocks in order, so every C element gets the
// FMA sequence and epilogue the packed macro loop would give it. Single-threaded, like the
// packed loop on one MC block.
void SimdGemmOneStrip(const float* a, int64_t lda, bool ta, const float* b, int64_t ldb,
                      int64_t m, int64_t n, int64_t k, float alpha, float* c, int64_t ldc) {
  static constexpr std::array<OneStripTileFn, kSimdMr> kTileByRows =
      OneStripTiles(std::make_index_sequence<kSimdMr>());
  const OneStripTileFn tile = kTileByRows[static_cast<size_t>(m - 1)];
  const int64_t a_rs = ta ? 1 : lda;
  const int64_t a_ks = ta ? lda : 1;
  for (int64_t j0 = 0; j0 < n; j0 += kSimdNr) {
    const int64_t cols = std::min(kSimdNr, n - j0);
    for (int64_t pc = 0; pc < k; pc += kSimdKc) {
      tile(std::min(kSimdKc, k - pc), a + pc * a_ks, a_rs, a_ks, b + pc * ldb + j0, ldb, cols,
           alpha, c + j0, ldc);
    }
  }
}

// ---------------------------------------------------------------------------------------
// Macro loop, generic over the kernel descriptor.
// ---------------------------------------------------------------------------------------

// Largest tile any kernel uses; bounds the stack accumulator in the macro loop.
constexpr int64_t kMaxMr = 16;
constexpr int64_t kMaxNr = 64;
static_assert(kMr <= kMaxMr && kNr <= kMaxNr, "blocked tile exceeds acc buffer");
static_assert(kSimdMr <= kMaxMr && kSimdNr <= kMaxNr, "simd tile exceeds acc buffer");
static_assert(kMc % kMr == 0 && kNc % kNr == 0, "blocked blocking must tile evenly");
static_assert(kSimdMc % kSimdMr == 0 && kSimdNc % kSimdNr == 0,
              "simd blocking must tile evenly");

// A register-tile kernel plus the blocking geometry its macro loop runs under. `direct`
// may be null (partial tiles and kernels without a fused epilogue go through `edge` and
// a clipped scalar writeback). `one_strip` may be null (every product is packed).
struct GemmKernel {
  int64_t mr, nr, mc, kc, nc;
  void (*edge)(int64_t kc, const float* apanel, const float* bpanel, float* acc);
  void (*direct)(int64_t kc, const float* apanel, const float* bpanel, float alpha,
                 float* cblk, int64_t ldc);
  void (*pack_a)(const float* a, int64_t lda, bool ta, int64_t i0, int64_t m_blk,
                 int64_t k0, int64_t kc, float* buf);
  void (*pack_b)(const float* b, int64_t ldb, bool tb, int64_t k0, int64_t kc, int64_t j0,
                 int64_t n_blk, float* buf);
  void (*one_strip)(const float* a, int64_t lda, bool ta, const float* b, int64_t ldb,
                    int64_t m, int64_t n, int64_t k, float alpha, float* c, int64_t ldc);
};

constexpr GemmKernel kBlockedKernel = {
    kMr, kNr, kMc, kKc, kNc, &MicroKernel, nullptr, &PackA<kMr>, &PackB<kNr>, nullptr};

constexpr GemmKernel kSimdKernel = {
    kSimdMr, kSimdNr, kSimdMc, kSimdKc, kSimdNc, &SimdMicroKernel, &SimdMicroKernelDirect,
    &PackA<kSimdMr>, &PackB<kSimdNr>, &SimdGemmOneStrip};

// The one-strip rule: when op(A) fits in one MR strip and op(B) is B itself, the product
// runs on the register tile straight from A and B. Packing pays only when a packed B
// strip is reused across several A strips; with one A strip each is read once either way.
bool RunsOneStrip(const GemmKernel& kern, int64_t m, bool tb) {
  return kern.one_strip != nullptr && m <= kern.mr && !tb;
}

// C[m, n] (leading dimension ldc) += alpha * op(A) @ op(B). C must already hold its beta
// contribution. Deterministic for fixed shapes regardless of threading.
void PackedGemmCore(const GemmKernel& kern, const float* a, int64_t lda, bool ta,
                    const float* b, int64_t ldb, bool tb, int64_t m, int64_t n, int64_t k,
                    float alpha, float* c, int64_t ldc) {
  if (RunsOneStrip(kern, m, tb)) {
    kern.one_strip(a, lda, ta, b, ldb, m, n, k, alpha, c, ldc);
    return;
  }
  // Packing panels are pooled scratch: every minibatch re-runs the same GEMM shapes, so
  // these recycle instead of hitting the heap. PackA/PackB fully overwrite the regions
  // the microkernel reads, so the buffers stay uninitialized.
  PoolScratch bpack(kern.kc * kern.nc);
  const int64_t m_blocks = (m + kern.mc - 1) / kern.mc;
  for (int64_t jc = 0; jc < n; jc += kern.nc) {
    const int64_t n_blk = std::min(kern.nc, n - jc);
    const int64_t n_strips = (n_blk + kern.nr - 1) / kern.nr;
    for (int64_t pc = 0; pc < k; pc += kern.kc) {
      const int64_t kc = std::min(kern.kc, k - pc);
      kern.pack_b(b, ldb, tb, pc, kc, jc, n_blk, bpack.data());
      ParallelFor(0, m_blocks, 1, [&](int64_t /*chunk*/, int64_t blk_lo, int64_t blk_hi) {
        PoolScratch apack(kern.mc * kern.kc);
        for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
          const int64_t i0 = blk * kern.mc;
          const int64_t m_blk = std::min(kern.mc, m - i0);
          kern.pack_a(a, lda, ta, i0, m_blk, pc, kc, apack.data());
          const int64_t m_strips = (m_blk + kern.mr - 1) / kern.mr;
          for (int64_t js = 0; js < n_strips; ++js) {
            const int64_t cols = std::min(kern.nr, n_blk - js * kern.nr);
            const float* bp = bpack.data() + js * kc * kern.nr;
            for (int64_t is = 0; is < m_strips; ++is) {
              const int64_t rows = std::min(kern.mr, m_blk - is * kern.mr);
              const float* ap = apack.data() + is * kc * kern.mr;
              float* cblk = c + (i0 + is * kern.mr) * ldc + jc + js * kern.nr;
              if (kern.direct != nullptr && rows == kern.mr && cols == kern.nr) {
                kern.direct(kc, ap, bp, alpha, cblk, ldc);
                continue;
              }
              alignas(64) float acc[kMaxMr * kMaxNr];  // fully written by the edge kernel
              kern.edge(kc, ap, bp, acc);
              for (int64_t r = 0; r < rows; ++r) {
                for (int64_t j = 0; j < cols; ++j) {
                  cblk[r * ldc + j] += alpha * acc[r * kern.nr + j];
                }
              }
            }
          }
        }
      });
    }
  }
}

const GemmKernel& ActiveGemmKernel() {
  return ActiveKernelVariant() == KernelVariant::kSimd ? kSimdKernel : kBlockedKernel;
}

// Variant-dispatched entry point used by Gemm and the im2col conv lowerings.
void GemmCore(const float* a, int64_t lda, bool ta, const float* b, int64_t ldb, bool tb,
              int64_t m, int64_t n, int64_t k, float alpha, float* c, int64_t ldc) {
  PackedGemmCore(ActiveGemmKernel(), a, lda, ta, b, ldb, tb, m, n, k, alpha, c, ldc);
}

// Extracts the logical (rows, cols) of a possibly transposed rank-2 operand.
void LogicalDims(const Tensor& t, bool transpose, int64_t* rows, int64_t* cols) {
  PD_CHECK_EQ(t.rank(), 2u);
  if (transpose) {
    *rows = t.dim(1);
    *cols = t.dim(0);
  } else {
    *rows = t.dim(0);
    *cols = t.dim(1);
  }
}

// Grain sizes for parallel elementwise / reduction loops. Chunk boundaries are a pure
// function of the element count, never of the thread budget (determinism).
constexpr int64_t kElementwiseGrain = 1 << 15;
constexpr int64_t kReduceGrain = 1 << 15;

}  // namespace

KernelVariant ActiveKernelVariant() {
  const int naive = g_naive_override.load(std::memory_order_relaxed);
  if (naive > 0) {
    return KernelVariant::kNaive;
  }
  const int pinned = g_variant_override.load(std::memory_order_relaxed);
  if (pinned >= 0) {
    return static_cast<KernelVariant>(pinned);
  }
  if (naive < 0 && NaiveKernelsFromEnv()) {
    return KernelVariant::kNaive;
  }
  return DefaultKernelVariant();
}

bool UseNaiveKernels() { return ActiveKernelVariant() == KernelVariant::kNaive; }

void SetNaiveKernelsForTesting(bool naive) {
  g_naive_override.store(naive ? 1 : 0, std::memory_order_relaxed);
}

void SetKernelVariantForTesting(KernelVariant v) {
  g_variant_override.store(static_cast<int>(v), std::memory_order_relaxed);
}

void ClearKernelVariantForTesting() {
  g_variant_override.store(-1, std::memory_order_relaxed);
}

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kNaive:
      return "naive";
    case KernelVariant::kBlocked:
      return "blocked";
    case KernelVariant::kSimd:
      return "simd";
  }
  return "unknown";
}

const char* SimdKernelIsa() { return kSimdIsaName; }

double MicroKernelPeakGflops(KernelVariant v, double min_seconds) {
  PD_CHECK(v == KernelVariant::kBlocked || v == KernelVariant::kSimd)
      << "no micro-kernel for variant " << KernelVariantName(v);
  const GemmKernel& kern = v == KernelVariant::kSimd ? kSimdKernel : kBlockedKernel;
  const int64_t kc = kern.kc;
  // One A-strip + one B-strip at full KC fit in L1 alongside the accumulator tile, so
  // this measures pure register-tile throughput — the roofline over any full GEMM.
  std::vector<float> apanel(static_cast<size_t>(kern.mr * kc), 1.0f);
  std::vector<float> bpanel(static_cast<size_t>(kern.nr * kc), 0.5f);
  alignas(64) float acc[kMaxMr * kMaxNr];
  const double flops_per_call = 2.0 * static_cast<double>(kern.mr * kern.nr * kc);
  // ~2ms batches; best batch wins so scheduler preemption lowers no estimate.
  const int64_t reps = std::max<int64_t>(1, static_cast<int64_t>(4.0e8 / flops_per_call));
  double best = 0.0;
  float sink = 0.0f;
  for (double elapsed = 0.0; elapsed < min_seconds;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < reps; ++i) {
      kern.edge(kc, apanel.data(), bpanel.data(), acc);
      sink += acc[0];
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    elapsed += dt;
    if (dt > 0.0) {
      best = std::max(best, flops_per_call * static_cast<double>(reps) / dt / 1e9);
    }
  }
  // The compiler cannot prove this false, which keeps the timing loop live.
  if (sink == 0.12345f) {
    return 0.0;
  }
  return best;
}

void Gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b, float alpha,
          float beta, Tensor* out) {
  int64_t m = 0;
  int64_t k = 0;
  int64_t k2 = 0;
  int64_t n = 0;
  LogicalDims(a, transpose_a, &m, &k);
  LogicalDims(b, transpose_b, &k2, &n);
  PD_CHECK_EQ(k, k2) << "GEMM inner dimensions disagree: " << a.ShapeString() << " x "
                     << b.ShapeString();
  if (UseNaiveKernels() ||
      (!RunsOneStrip(ActiveGemmKernel(), m, transpose_b) && m * n * k <= kTinyGemmElems)) {
    ref::Gemm(a, transpose_a, b, transpose_b, alpha, beta, out);
    return;
  }
  if (beta == 0.0f) {
    if (out->rank() != 2 || out->dim(0) != m || out->dim(1) != n) {
      *out = Tensor({m, n});
    } else {
      out->SetZero();
    }
  } else {
    PD_CHECK(out->rank() == 2 && out->dim(0) == m && out->dim(1) == n)
        << "GEMM accumulate into mismatched output " << out->ShapeString();
    if (beta != 1.0f) {
      Scale(out, beta);
    }
  }
  GemmCore(a.data(), a.dim(1), transpose_a, b.data(), b.dim(1), transpose_b, m, n, k,
           alpha, out->data(), n);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  Gemm(a, false, b, false, 1.0f, 0.0f, out);
}

// ---------------------------------------------------------------------------------------
// Convolution: a direct kernel for stride 1 with padding < kernel, im2col lowering onto
// the packed GEMM for every other geometry.
// ---------------------------------------------------------------------------------------

void ConvGeometry::Check(const Tensor& input, const Tensor& weight, const Tensor& bias) const {
  PD_CHECK_EQ(input.rank(), 4u);
  PD_CHECK_EQ(input.dim(0), batch);
  PD_CHECK_EQ(input.dim(1), in_channels);
  PD_CHECK_EQ(input.dim(2), in_h);
  PD_CHECK_EQ(input.dim(3), in_w);
  PD_CHECK_EQ(weight.rank(), 4u);
  PD_CHECK_EQ(weight.dim(0), out_channels);
  PD_CHECK_EQ(weight.dim(1), in_channels);
  PD_CHECK_EQ(weight.dim(2), kernel);
  PD_CHECK_EQ(weight.dim(3), kernel);
  PD_CHECK_EQ(bias.numel(), out_channels);
  PD_CHECK_GT(stride, 0);
  PD_CHECK_GE(padding, 0);
  PD_CHECK_GT(out_h(), 0);
  PD_CHECK_GT(out_w(), 0);
}

namespace {

// Unfolds one sample's [IC, H, W] slab into a [IC*K*K, OH*OW] patch matrix (zero padding
// included); row (ic*K + kh)*K + kw holds input[ic, oh*s - p + kh, ow*s - p + kw].
void Im2Col(const float* in, const ConvGeometry& g, float* col) {
  const int64_t out_h = g.out_h();
  const int64_t out_w = g.out_w();
  const int64_t spatial = out_h * out_w;
  for (int64_t ic = 0; ic < g.in_channels; ++ic) {
    const float* plane = in + ic * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw) {
        float* row = col + ((ic * g.kernel + kh) * g.kernel + kw) * spatial;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * g.stride - g.padding + kh;
          float* dst = row + oh * out_w;
          if (ih < 0 || ih >= g.in_h) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          const float* src = plane + ih * g.in_w;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * g.stride - g.padding + kw;
            dst[ow] = (iw < 0 || iw >= g.in_w) ? 0.0f : src[iw];
          }
        }
      }
    }
  }
}

// Scatter-adds a [IC*K*K, OH*OW] patch-gradient matrix back into a [IC, H, W] slab
// (transpose of Im2Col).
void Col2Im(const float* col, const ConvGeometry& g, float* in_grad) {
  const int64_t out_h = g.out_h();
  const int64_t out_w = g.out_w();
  const int64_t spatial = out_h * out_w;
  for (int64_t ic = 0; ic < g.in_channels; ++ic) {
    float* plane = in_grad + ic * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw) {
        const float* row = col + ((ic * g.kernel + kh) * g.kernel + kw) * spatial;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * g.stride - g.padding + kh;
          if (ih < 0 || ih >= g.in_h) {
            continue;
          }
          float* dst = plane + ih * g.in_w;
          const float* src = row + oh * out_w;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * g.stride - g.padding + kw;
            if (iw >= 0 && iw < g.in_w) {
              dst[iw] += src[ow];
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------------------
// Direct convolution, for stride 1 with padding < kernel.
//
// Each sample is copied into a zero-padded slab: per channel, in_h + 2p rows of
// 8 * ceil(out_w / 8) + k - 1 columns, so every tap's vector load stays inside its row and
// the inner loops test no bounds. The forward kernel register-blocks 8 output channels x 2
// vectors of output columns (16 independent FMA chains; 8 at a row's odd last vector)
// against weights packed as [oc block][ic][kh][kw][8]; a last block of at most 4 channels
// runs 4 channels x 4 vectors instead, so a 3-channel convolution wastes 1/4 of its
// lanes, not 5/8. Every output adds its taps to the bias in (ic, kh, kw) order.
//
// The data gradient is the same kernel run on the output gradient padded by k - 1 - p,
// with the weights flipped and their channel axes swapped. The weight gradient keeps one
// vector partial per (oc, ic, tap), accumulated over the samples in batch order and
// reduced once at the end. Forward and data gradient parallelize over samples and the
// weight gradient over output channels, so each output element comes from one fixed
// sequence of operations at any thread budget.
// ---------------------------------------------------------------------------------------

constexpr int64_t kDirectOc = 8;  // output channels per register block

bool UseDirectConv(const ConvGeometry& g) { return g.stride == 1 && g.padding < g.kernel; }

// A stride-1 convolution of `batch` samples, and the padded slab layout it runs on.
struct DirectConv {
  int64_t batch, in_c, in_h, in_w, out_c, kernel, pad;

  int64_t out_h() const { return in_h + 2 * pad - kernel + 1; }
  int64_t out_w() const { return in_w + 2 * pad - kernel + 1; }
  int64_t vecs() const { return (out_w() + kLanes - 1) / kLanes; }  // vectors per out row
  int64_t rows() const { return in_h + 2 * pad; }
  int64_t cols() const { return vecs() * kLanes + kernel - 1; }
  int64_t slab() const { return in_c * rows() * cols(); }
  int64_t taps() const { return kernel * kernel; }
  int64_t oc_blocks() const { return (out_c + kDirectOc - 1) / kDirectOc; }
  int64_t packed_weights() const { return oc_blocks() * in_c * taps() * kDirectOc; }
};

// Copies one [in_c, in_h, in_w] sample into the interior of a slab whose padding is zero.
void FillSlab(const float* in, const DirectConv& d, float* slab) {
  const int64_t rows = d.rows();
  const int64_t cols = d.cols();
  for (int64_t c = 0; c < d.in_c; ++c) {
    for (int64_t h = 0; h < d.in_h; ++h) {
      std::memcpy(slab + (c * rows + h + d.pad) * cols + d.pad,
                  in + (c * d.in_h + h) * d.in_w, static_cast<size_t>(d.in_w) * sizeof(float));
    }
  }
}

// Packs [OC, IC, K, K] weights as [oc block][in channel][tap][8], zero past out_c. With
// `flip`, d is the data-gradient convolution (in_c = OC, out_c = IC) and each tap reads
// the spatially flipped weight.
void PackDirectWeights(const float* w, const DirectConv& d, bool flip, float* dst) {
  const int64_t taps = d.taps();
  for (int64_t b = 0; b < d.oc_blocks(); ++b) {
    for (int64_t c = 0; c < d.in_c; ++c) {
      for (int64_t t = 0; t < taps; ++t) {
        float* lanes = dst + ((b * d.in_c + c) * taps + t) * kDirectOc;
        for (int64_t j = 0; j < kDirectOc; ++j) {
          const int64_t o = b * kDirectOc + j;
          lanes[j] = o >= d.out_c ? 0.0f
                     : flip       ? w[(c * d.out_c + o) * taps + taps - 1 - t]
                                  : w[(o * d.in_c + c) * taps + t];
        }
      }
    }
  }
}

// Output row oh, vectors [v0, v0 + NV), of the first OC channels of the block whose
// packed weights are wblk, stored to the first `channels` planes at out. The accumulator
// loops have constant trip counts, so they unroll and the OC x NV accumulators stay in
// registers.
template <int64_t OC, int64_t NV>
void DirectConvTile(const float* __restrict__ slab, const DirectConv& d,
                    const float* __restrict__ wblk, const float* bias8, int64_t channels,
                    int64_t oh, int64_t v0, float* __restrict__ out) {
  Vec8 acc[OC][NV];
  for (int64_t j = 0; j < OC; ++j) {
    for (int64_t v = 0; v < NV; ++v) {
      acc[j][v] = Splat(bias8[j]);
    }
  }
  const int64_t k = d.kernel;
  const int64_t cols = d.cols();
  const float* base = slab + oh * cols + v0 * kLanes;
  for (int64_t c = 0; c < d.in_c; ++c) {
    for (int64_t kh = 0; kh < k; ++kh) {
      const float* row = base + (c * d.rows() + kh) * cols;
      const float* wrow = wblk + (c * k + kh) * k * kDirectOc;
      for (int64_t kw = 0; kw < k; ++kw) {
        Vec8 x[NV];
        for (int64_t v = 0; v < NV; ++v) {
          x[v] = LoadU(row + kw + v * kLanes);
        }
        const float* wt = wrow + kw * kDirectOc;
        for (int64_t j = 0; j < OC; ++j) {
          const Vec8 wj = Splat(wt[j]);
          for (int64_t v = 0; v < NV; ++v) {
            acc[j][v] += wj * x[v];
          }
        }
      }
    }
  }
  const int64_t out_h = d.out_h();
  const int64_t out_w = d.out_w();
  for (int64_t j = 0; j < OC; ++j) {
    if (j >= channels) {
      break;
    }
    for (int64_t v = 0; v < NV; ++v) {
      const int64_t ow = (v0 + v) * kLanes;
      float* dst = out + (j * out_h + oh) * out_w + ow;
      const int64_t count = std::min(kLanes, out_w - ow);
      if (count == kLanes) {
        StoreU(dst, acc[j][v]);
      } else {
        StorePartial(dst, acc[j][v], count);
      }
    }
  }
}

// Output row oh from vector v0 on: NV-vector tiles, then narrower ones for the rest.
template <int64_t OC, int64_t NV>
void DirectConvRow(const float* slab, const DirectConv& d, const float* wblk,
                   const float* bias8, int64_t channels, int64_t oh, int64_t v0, float* out) {
  int64_t v = v0;
  for (; v + NV <= d.vecs(); v += NV) {
    DirectConvTile<OC, NV>(slab, d, wblk, bias8, channels, oh, v, out);
  }
  if constexpr (NV > 1) {
    if (v < d.vecs()) {
      DirectConvRow<OC, NV / 2>(slab, d, wblk, bias8, channels, oh, v, out);
    }
  }
}

// out[n] = bias + conv(in[n]) for every sample; out is [batch, out_c, out_h, out_w] and is
// fully written. wpack comes from PackDirectWeights; a null bias means zero.
void DirectConvForward(const float* in, const DirectConv& d, const float* wpack,
                       const float* bias, float* out) {
  const int64_t in_numel = d.in_c * d.in_h * d.in_w;
  const int64_t plane = d.out_h() * d.out_w();
  ParallelFor(0, d.batch, 1, [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
    PoolScratch slab(d.slab(), /*zero=*/true);  // FillSlab rewrites only the interior
    for (int64_t n = lo; n < hi; ++n) {
      FillSlab(in + n * in_numel, d, slab.data());
      for (int64_t b = 0; b < d.oc_blocks(); ++b) {
        const int64_t oc0 = b * kDirectOc;
        const int64_t channels = std::min(kDirectOc, d.out_c - oc0);
        float bias8[kDirectOc] = {};
        for (int64_t j = 0; j < channels && bias != nullptr; ++j) {
          bias8[j] = bias[oc0 + j];
        }
        const float* wblk = wpack + b * d.in_c * d.taps() * kDirectOc;
        float* oblk = out + (n * d.out_c + oc0) * plane;
        for (int64_t oh = 0; oh < d.out_h(); ++oh) {
          if (channels > kDirectOc / 2) {
            DirectConvRow<kDirectOc, 2>(slab.data(), d, wblk, bias8, channels, oh, 0, oblk);
          } else {
            DirectConvRow<kDirectOc / 2, 4>(slab.data(), d, wblk, bias8, channels, oh, 0,
                                            oblk);
          }
        }
      }
    }
  });
}

// partial[r][c] += gy[oh][ow] * x[oh + r][ow + c] over (oh, ow), lane by lane, for an R x C
// block of taps whose top-left tap reads x; partial is that tap's slot in a [k][k][8]
// array. One gradient load feeds R * C independent FMA chains, and every load address is
// a row pointer plus a constant.
template <int64_t R, int64_t C>
void WeightGradBlock(const float* __restrict__ gy, const float* __restrict__ x,
                     const DirectConv& d, float* __restrict__ partial) {
  const int64_t cols = d.cols();
  const int64_t out_w = d.out_w();
  const int64_t k = d.kernel;
  Vec8 acc[R][C];
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t c = 0; c < C; ++c) {
      acc[r][c] = LoadU(partial + (r * k + c) * kLanes);
    }
  }
  for (int64_t oh = 0; oh < d.out_h(); ++oh) {
    const float* grow = gy + oh * out_w;
    const float* xrow[R];
    for (int64_t r = 0; r < R; ++r) {
      xrow[r] = x + (oh + r) * cols;
    }
    const auto step = [&](Vec8 g, int64_t ow) {
      for (int64_t r = 0; r < R; ++r) {
        for (int64_t c = 0; c < C; ++c) {
          acc[r][c] += g * LoadU(xrow[r] + ow + c);
        }
      }
    };
    // The row's last partial vector gets its own step outside the loop: LoadPartial is a
    // library call, which would make the accumulators round-trip through memory every
    // iteration.
    int64_t ow = 0;
    for (; ow + kLanes <= out_w; ow += kLanes) {
      step(LoadU(grow + ow), ow);
    }
    if (ow < out_w) {
      step(LoadPartial(grow + ow, out_w - ow), ow);
    }
  }
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t c = 0; c < C; ++c) {
      StoreU(partial + (r * k + c) * kLanes, acc[r][c]);
    }
  }
}

// Weight-gradient blocks by [rows - 1][columns - 1]; a kernel's taps are tiled 3 x 3.
constexpr int64_t kTapBlock = 3;
using WeightGradBlockFn = void (*)(const float*, const float*, const DirectConv&, float*);
constexpr WeightGradBlockFn kWeightGradBlocks[kTapBlock][kTapBlock] = {
    {&WeightGradBlock<1, 1>, &WeightGradBlock<1, 2>, &WeightGradBlock<1, 3>},
    {&WeightGradBlock<2, 1>, &WeightGradBlock<2, 2>, &WeightGradBlock<2, 3>},
    {&WeightGradBlock<3, 1>, &WeightGradBlock<3, 2>, &WeightGradBlock<3, 3>},
};

// Sum of p[0, n) as one vector partial plus a scalar tail.
float VectorSum(const float* p, int64_t n) {
  Vec8 acc{};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc += LoadU(p + i);
  }
  float total = HorizontalSum(acc);
  for (; i < n; ++i) {
    total += p[i];
  }
  return total;
}

// A null grad_input skips the data gradient (the flipped-weight convolution).
void DirectConvBackward(const Tensor& input, const Tensor& weight, const Tensor& grad_output,
                        const ConvGeometry& g, float* grad_weight, float* grad_bias,
                        float* grad_input) {
  const DirectConv d{g.batch, g.in_channels, g.in_h, g.in_w, g.out_channels, g.kernel,
                     g.padding};
  const int64_t in_numel = d.in_c * d.in_h * d.in_w;
  const int64_t plane = d.out_h() * d.out_w();
  const int64_t taps = d.taps();
  const int64_t weights = d.out_c * d.in_c * taps;
  PoolScratch partials(weights * kLanes, /*zero=*/true);  // [oc][ic][tap][lane]
  PoolScratch slab(d.slab(), /*zero=*/true);
  for (int64_t n = 0; n < g.batch; ++n) {
    FillSlab(input.data() + n * in_numel, d, slab.data());
    const float* gy = grad_output.data() + n * d.out_c * plane;
    ParallelFor(0, d.out_c, 1, [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
      for (int64_t oc = lo; oc < hi; ++oc) {
        const float* gyo = gy + oc * plane;
        grad_bias[oc] += VectorSum(gyo, plane);
        for (int64_t ic = 0; ic < d.in_c; ++ic) {
          const float* xplane = slab.data() + ic * d.rows() * d.cols();
          float* partial = partials.data() + (oc * d.in_c + ic) * taps * kLanes;
          for (int64_t kh = 0; kh < d.kernel; kh += kTapBlock) {
            for (int64_t kw = 0; kw < d.kernel; kw += kTapBlock) {
              const int64_t rows = std::min(kTapBlock, d.kernel - kh);
              const int64_t columns = std::min(kTapBlock, d.kernel - kw);
              kWeightGradBlocks[rows - 1][columns - 1](
                  gyo, xplane + kh * d.cols() + kw, d,
                  partial + (kh * d.kernel + kw) * kLanes);
            }
          }
        }
      }
    });
  }
  for (int64_t i = 0; i < weights; ++i) {
    grad_weight[i] += HorizontalSum(LoadU(partials.data() + i * kLanes));
  }
  if (grad_input == nullptr) {
    return;
  }
  const DirectConv dt{g.batch, g.out_channels, d.out_h(), d.out_w(), g.in_channels, g.kernel,
                      g.kernel - 1 - g.padding};
  PoolScratch flipped(dt.packed_weights());
  PackDirectWeights(weight.data(), dt, /*flip=*/true, flipped.data());
  DirectConvForward(grad_output.data(), dt, flipped.data(), nullptr, grad_input);
}

}  // namespace

void Conv2dForward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                   const ConvGeometry& g, Tensor* out) {
  g.Check(input, weight, bias);
  if (UseNaiveKernels()) {
    ref::Conv2dForward(input, weight, bias, g, out);
    return;
  }
  const int64_t out_h = g.out_h();
  const int64_t out_w = g.out_w();
  const int64_t spatial = out_h * out_w;
  const int64_t patch = g.in_channels * g.kernel * g.kernel;
  if (out->rank() != 4 || out->dim(0) != g.batch || out->dim(1) != g.out_channels ||
      out->dim(2) != out_h || out->dim(3) != out_w) {
    // Every element is written below, so skip the zero fill.
    *out = Tensor::Uninitialized({g.batch, g.out_channels, out_h, out_w});
  }
  if (UseDirectConv(g)) {
    const DirectConv d{g.batch, g.in_channels, g.in_h, g.in_w, g.out_channels, g.kernel,
                       g.padding};
    PoolScratch wpack(d.packed_weights());
    PackDirectWeights(weight.data(), d, /*flip=*/false, wpack.data());
    DirectConvForward(input.data(), d, wpack.data(), bias.data(), out->data());
    return;
  }
  // Samples write disjoint output slabs and only read the shared weights, so the batch
  // loop parallelizes deterministically; each chunk owns a private im2col buffer.
  ParallelFor(0, g.batch, 1, [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
    PoolScratch col(patch * spatial);  // fully written by Im2Col
    for (int64_t n = lo; n < hi; ++n) {
      Im2Col(input.data() + n * g.in_channels * g.in_h * g.in_w, g, col.data());
      float* cslab = out->data() + n * g.out_channels * spatial;
      for (int64_t oc = 0; oc < g.out_channels; ++oc) {
        std::fill(cslab + oc * spatial, cslab + (oc + 1) * spatial, bias[oc]);
      }
      // out[n] += W[OC, patch] @ col[patch, spatial]; the weight tensor's [OC, IC, K, K]
      // storage is already the row-major [OC, patch] matrix.
      GemmCore(weight.data(), patch, false, col.data(), spatial, false, g.out_channels,
               spatial, patch, 1.0f, cslab, spatial);
    }
  });
}

void Conv2dBackward(const Tensor& input, const Tensor& weight, const Tensor& grad_output,
                    const ConvGeometry& g, Tensor* grad_weight, Tensor* grad_bias,
                    Tensor* grad_input) {
  g.Check(input, weight, *grad_bias);
  PD_CHECK(grad_weight->SameShape(weight));
  if (UseNaiveKernels()) {
    // The oracle always computes the data gradient; without a destination it lands in
    // scratch.
    Tensor scratch;
    ref::Conv2dBackward(input, weight, grad_output, g, grad_weight, grad_bias,
                        grad_input != nullptr ? grad_input : &scratch);
    return;
  }
  const int64_t out_h = g.out_h();
  const int64_t out_w = g.out_w();
  const int64_t spatial = out_h * out_w;
  const int64_t patch = g.in_channels * g.kernel * g.kernel;
  PD_CHECK_EQ(grad_output.rank(), 4u);
  PD_CHECK_EQ(grad_output.dim(0), g.batch);
  PD_CHECK_EQ(grad_output.dim(1), g.out_channels);
  PD_CHECK_EQ(grad_output.dim(2), out_h);
  PD_CHECK_EQ(grad_output.dim(3), out_w);
  if (UseDirectConv(g)) {
    if (grad_input != nullptr && !grad_input->SameShape(input)) {
      *grad_input = Tensor::Uninitialized(input.shape());  // fully written
    }
    DirectConvBackward(input, weight, grad_output, g, grad_weight->data(), grad_bias->data(),
                       grad_input != nullptr ? grad_input->data() : nullptr);
    return;
  }
  std::optional<PoolScratch> dcol;  // the data gradient's columns, zeroed per sample below
  if (grad_input != nullptr) {
    if (!grad_input->SameShape(input)) {
      *grad_input = Tensor(input.shape());
    } else {
      grad_input->SetZero();
    }
    dcol.emplace(patch * spatial);
  }
  // Weight/bias gradients accumulate across samples in batch order (deterministic, and
  // the order the naive reference uses), so this loop stays sequential; the GEMMs inside
  // parallelize over the pool.
  PoolScratch col(patch * spatial);  // fully written by Im2Col
  for (int64_t n = 0; n < g.batch; ++n) {
    const float* gslab = grad_output.data() + n * g.out_channels * spatial;
    for (int64_t oc = 0; oc < g.out_channels; ++oc) {
      const float* grow = gslab + oc * spatial;
      float acc = 0.0f;
      for (int64_t i = 0; i < spatial; ++i) {
        acc += grow[i];
      }
      (*grad_bias)[oc] += acc;
    }
    Im2Col(input.data() + n * g.in_channels * g.in_h * g.in_w, g, col.data());
    // dW[OC, patch] += g[OC, spatial] @ col[patch, spatial]^T.
    GemmCore(gslab, spatial, false, col.data(), spatial, true, g.out_channels, patch,
             spatial, 1.0f, grad_weight->data(), patch);
    if (!dcol) {
      continue;
    }
    // dcol[patch, spatial] = W[OC, patch]^T @ g[OC, spatial], scattered back via col2im.
    std::fill(dcol->data(), dcol->data() + patch * spatial, 0.0f);
    GemmCore(weight.data(), patch, true, gslab, spatial, false, patch, spatial,
             g.out_channels, 1.0f, dcol->data(), spatial);
    Col2Im(dcol->data(), g, grad_input->data() + n * g.in_channels * g.in_h * g.in_w);
  }
}

// ---------------------------------------------------------------------------------------
// Elementwise ops: disjoint fixed-boundary chunks over the shared pool.
// ---------------------------------------------------------------------------------------

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  PD_CHECK(a.SameShape(b));
  *out = a;
  AddInPlace(out, b);
}

void AddInPlace(Tensor* a, const Tensor& b) {
  PD_CHECK(a->SameShape(b));
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  pa[i] += pb[i];
                }
              });
}

void Axpy(float alpha, const Tensor& b, Tensor* a) {
  PD_CHECK(a->SameShape(b));
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  pa[i] += alpha * pb[i];
                }
              });
}

void Sub(const Tensor& a, const Tensor& b, Tensor* out) {
  PD_CHECK(a.SameShape(b));
  *out = a;
  float* po = out->data();
  const float* pb = b.data();
  ParallelFor(0, a.numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  po[i] -= pb[i];
                }
              });
}

void Mul(const Tensor& a, const Tensor& b, Tensor* out) {
  PD_CHECK(a.SameShape(b));
  *out = a;
  float* po = out->data();
  const float* pb = b.data();
  ParallelFor(0, a.numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  po[i] *= pb[i];
                }
              });
}

void Scale(Tensor* a, float scalar) {
  float* pa = a->data();
  ParallelFor(0, a->numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  pa[i] *= scalar;
                }
              });
}

void AddBiasRows(Tensor* matrix, const Tensor& bias) {
  PD_CHECK_EQ(matrix->rank(), 2u);
  PD_CHECK_EQ(bias.numel(), matrix->dim(1));
  const int64_t n = matrix->dim(1);
  float* pm = matrix->data();
  const float* pb = bias.data();
  ParallelFor(0, matrix->dim(0), std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(n, 1)),
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  float* row = pm + i * n;
                  for (int64_t j = 0; j < n; ++j) {
                    row[j] += pb[j];
                  }
                }
              });
}

// ---------------------------------------------------------------------------------------
// ReLU and max pooling. Raw-pointer loops whose selects compile to compares and blends, not
// branches (a branch mispredicts on about half of signed activations). Each op writes a
// fresh output rather than detaching a copy-on-write share of its input.
// ---------------------------------------------------------------------------------------

void Relu(const Tensor& input, Tensor* out) {
  Tensor result = Tensor::Uninitialized(input.shape());  // fully written below
  const float* pi = input.data();
  float* po = result.data();
  ParallelFor(0, input.numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
                }
              });
  *out = std::move(result);
}

void ReluBackward(const Tensor& output, const Tensor& grad_output, Tensor* grad_input) {
  PD_CHECK(grad_output.SameShape(output));
  Tensor result = Tensor::Uninitialized(output.shape());  // fully written below
  const float* po = output.data();
  const float* pg = grad_output.data();
  float* pr = result.data();
  ParallelFor(0, output.numel(), kElementwiseGrain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  const float g = pg[i];  // unconditional load, so the select vectorizes
                  pr[i] = po[i] > 0.0f ? g : 0.0f;
                }
              });
  *grad_input = std::move(result);
}

namespace {

// Max pooling of one [in_h, in_w] plane into [out_h, out_w] maxima and window offsets.
// W and S are the window and stride when fixed at compile time, 0 to take them from the
// arguments: the 2x2, stride-2 instance vectorizes over output columns, with blends for
// the selects.
template <int64_t W, int64_t S>
void MaxPoolPlane(const float* __restrict__ src, int64_t in_w, int64_t out_h, int64_t out_w,
                  int64_t window_arg, int64_t stride_arg, float* __restrict__ best_out,
                  float* __restrict__ offset_out) {
  const int64_t window = W > 0 ? W : window_arg;
  const int64_t stride = S > 0 ? S : stride_arg;
  for (int64_t oh = 0; oh < out_h; ++oh) {
    for (int64_t ow = 0; ow < out_w; ++ow) {
      const float* win = src + oh * stride * in_w + ow * stride;
      // Starting from the window's own first element keeps an all -inf window's max and
      // argmax inside the window.
      float best = win[0];
      float offset = 0.0f;
      for (int64_t kh = 0; kh < window; ++kh) {
        for (int64_t kw = 0; kw < window; ++kw) {
          const float v = win[kh * in_w + kw];
          const bool better = v > best;
          best = better ? v : best;
          offset = better ? static_cast<float>(kh * window + kw) : offset;
        }
      }
      best_out[oh * out_w + ow] = best;
      offset_out[oh * out_w + ow] = offset;
    }
  }
}

// Adds each output gradient of one plane to its window's argmax element: every window
// element receives the gradient or +0, so overlapping windows accumulate and the offset
// is compared, not decoded. W and S as for MaxPoolPlane.
template <int64_t W, int64_t S>
void MaxPoolPlaneBackward(const float* __restrict__ grad, const float* __restrict__ offsets,
                          int64_t in_w, int64_t out_h, int64_t out_w, int64_t window_arg,
                          int64_t stride_arg, float* __restrict__ dst) {
  const int64_t window = W > 0 ? W : window_arg;
  const int64_t stride = S > 0 ? S : stride_arg;
  for (int64_t oh = 0; oh < out_h; ++oh) {
    for (int64_t kh = 0; kh < window; ++kh) {
      float* row = dst + (oh * stride + kh) * in_w;
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const float g = grad[oh * out_w + ow];  // unconditional load, so the select vectorizes
        const float offset = offsets[oh * out_w + ow];
        for (int64_t kw = 0; kw < window; ++kw) {
          row[ow * stride + kw] += offset == static_cast<float>(kh * window + kw) ? g : 0.0f;
        }
      }
    }
  }
}

}  // namespace

void MaxPool2dForward(const Tensor& input, int64_t window, int64_t stride, Tensor* out,
                      Tensor* argmax) {
  PD_CHECK_EQ(input.rank(), 4u);
  PD_CHECK_GT(window, 0);
  PD_CHECK_GT(stride, 0);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = (in_h - window) / stride + 1;
  const int64_t out_w = (in_w - window) / stride + 1;
  PD_CHECK_GT(out_h, 0);
  PD_CHECK_GT(out_w, 0);
  const std::vector<int64_t> shape = {input.dim(0), input.dim(1), out_h, out_w};
  Tensor result = Tensor::Uninitialized(shape);  // both fully written below
  Tensor offsets = Tensor::Uninitialized(shape);
  const float* pi = input.data();
  float* po = result.data();
  float* pa = offsets.data();
  const auto plane = window == 2 && stride == 2 ? &MaxPoolPlane<2, 2> : &MaxPoolPlane<0, 0>;
  // Planes are independent; the grain depends only on the shape.
  const int64_t grain = std::max<int64_t>(1, kElementwiseGrain / (in_h * in_w));
  ParallelFor(0, input.dim(0) * input.dim(1), grain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t p = lo; p < hi; ++p) {
                  plane(pi + p * in_h * in_w, in_w, out_h, out_w, window, stride,
                        po + p * out_h * out_w, pa + p * out_h * out_w);
                }
              });
  *out = std::move(result);
  *argmax = std::move(offsets);
}

void MaxPool2dBackward(const Tensor& grad_output, const Tensor& argmax, int64_t window,
                       int64_t stride, const std::vector<int64_t>& input_shape,
                       Tensor* grad_input) {
  PD_CHECK(grad_output.SameShape(argmax));
  PD_CHECK_EQ(grad_output.rank(), 4u);
  PD_CHECK_EQ(input_shape.size(), 4u);
  Tensor result(input_shape);
  const int64_t in_h = input_shape[2];
  const int64_t in_w = input_shape[3];
  const int64_t out_h = grad_output.dim(2);
  const int64_t out_w = grad_output.dim(3);
  const float* pg = grad_output.data();
  const float* pa = argmax.data();
  float* pr = result.data();
  const auto plane = window == 2 && stride == 2 ? &MaxPoolPlaneBackward<2, 2>
                                                 : &MaxPoolPlaneBackward<0, 0>;
  // A plane's gradient comes only from its own outputs, so planes are disjoint work.
  const int64_t grain = std::max<int64_t>(1, kElementwiseGrain / (in_h * in_w));
  ParallelFor(0, input_shape[0] * input_shape[1], grain,
              [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
                for (int64_t p = lo; p < hi; ++p) {
                  plane(pg + p * out_h * out_w, pa + p * out_h * out_w, in_w, out_h, out_w,
                        window, stride, pr + p * in_h * in_w);
                }
              });
  *grad_input = std::move(result);
}

// ---------------------------------------------------------------------------------------
// Reductions: fixed-size chunks produce indexed partials combined in chunk order, so the
// result is a pure function of the input (never of the thread count).
// ---------------------------------------------------------------------------------------

void AccumulateColumnSums(const Tensor& matrix, Tensor* bias_grad) {
  PD_CHECK_EQ(matrix.rank(), 2u);
  PD_CHECK_EQ(bias_grad->numel(), matrix.dim(1));
  const int64_t m = matrix.dim(0);
  const int64_t n = matrix.dim(1);
  const float* pm = matrix.data();
  float* pg = bias_grad->data();
  const int64_t row_grain = std::max<int64_t>(1, kReduceGrain / std::max<int64_t>(n, 1));
  const int64_t chunks = ParallelChunkCount(0, m, row_grain);
  if (chunks <= 1) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        pg[j] += pm[i * n + j];
      }
    }
    return;
  }
  PoolScratch partials(chunks * n, /*zero=*/true);
  ParallelFor(0, m, row_grain, [&](int64_t chunk, int64_t lo, int64_t hi) {
    float* part = partials.data() + chunk * n;
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        part[j] += pm[i * n + j];
      }
    }
  });
  for (int64_t c = 0; c < chunks; ++c) {
    const float* part = partials.data() + c * n;
    for (int64_t j = 0; j < n; ++j) {
      pg[j] += part[j];
    }
  }
}

double Sum(const Tensor& a) {
  if (UseNaiveKernels()) {
    return ref::Sum(a);
  }
  const float* pa = a.data();
  const int64_t n = a.numel();
  const int64_t chunks = ParallelChunkCount(0, n, kReduceGrain);
  if (chunks <= 1) {
    return ref::Sum(a);
  }
  std::vector<double> partials(static_cast<size_t>(chunks), 0.0);
  ParallelFor(0, n, kReduceGrain, [&](int64_t chunk, int64_t lo, int64_t hi) {
    double total = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      total += pa[i];
    }
    partials[static_cast<size_t>(chunk)] = total;
  });
  double total = 0.0;
  for (double p : partials) {
    total += p;
  }
  return total;
}

double Norm(const Tensor& a) {
  if (UseNaiveKernels()) {
    return ref::Norm(a);
  }
  const float* pa = a.data();
  const int64_t n = a.numel();
  const int64_t chunks = ParallelChunkCount(0, n, kReduceGrain);
  if (chunks <= 1) {
    return ref::Norm(a);
  }
  std::vector<double> partials(static_cast<size_t>(chunks), 0.0);
  ParallelFor(0, n, kReduceGrain, [&](int64_t chunk, int64_t lo, int64_t hi) {
    double total = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      total += static_cast<double>(pa[i]) * pa[i];
    }
    partials[static_cast<size_t>(chunk)] = total;
  });
  double total = 0.0;
  for (double p : partials) {
    total += p;
  }
  return std::sqrt(total);
}

int64_t ArgMaxRow(const Tensor& a, int64_t r) {
  PD_CHECK_EQ(a.rank(), 2u);
  PD_CHECK(r >= 0 && r < a.dim(0));
  const int64_t n = a.dim(1);
  const float* row = a.data() + r * n;
  int64_t best = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) {
      best = j;
    }
  }
  return best;
}

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  PD_CHECK_EQ(logits.rank(), 2u);
  if (!probs->SameShape(logits)) {
    *probs = Tensor::Uninitialized(logits.shape());  // every row is fully written below
  }
  const int64_t m = logits.dim(0);
  const int64_t n = logits.dim(1);
  const float* pl = logits.data();
  float* pp = probs->data();
  // Rows are independent; per-row math matches the reference bit-for-bit.
  const int64_t row_grain = std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(n, 1));
  ParallelFor(0, m, row_grain, [&](int64_t /*chunk*/, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = pl + i * n;
      float* out = pp + i * n;
      float max_val = row[0];
      for (int64_t j = 1; j < n; ++j) {
        max_val = std::max(max_val, row[j]);
      }
      double denom = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        const float e = std::exp(row[j] - max_val);
        out[j] = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < n; ++j) {
        out[j] *= inv;
      }
    }
  });
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  PD_CHECK(a.SameShape(b));
  double max_diff = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(pa[i]) - pb[i]));
  }
  return max_diff;
}

}  // namespace pipedream
