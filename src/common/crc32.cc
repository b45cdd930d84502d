#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pipedream {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // IEEE 802.3, bit-reflected

// Slice-by-16: table[0] is the classic bytewise table (the CRC of one byte), and table[k]
// advances table[k-1]'s value past one more zero byte, so sixteen lookups — one per byte of
// a 16-byte block, each into the table for that byte's distance from the block's end —
// XOR to the CRC of the whole block.
using SliceTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr SliceTables MakeSliceTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kPolynomial ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr SliceTables kSlice = MakeSliceTables();

uint32_t LoadLittleEndian32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction", Intel, 2009). Four 128-bit lanes advance over the input 64
// bytes at a time: multiplying a lane's two 64-bit halves by x^(512±32) mod P (k1, k2) moves
// its contribution 512 bits forward, where it is XORed into the next block. The lanes then
// fold into one (k3, k4: a 128-bit step), which absorbs the remaining 16-byte blocks, and
// 128 bits reduce to 64 (k4), 64 to 32 (k5), and 32 exactly via Barrett reduction with the
// polynomial P' and mu = floor(x^64 / P'). All constants are bit-reflected.
#define PD_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

PD_CRC_TARGET __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances `lane` by the distance `k` encodes and adds `next`.
PD_CRC_TARGET __m128i Fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00), _mm_clmulepi64_si128(lane, k, 0x11)),
      next);
}

// `size` is at least 64 and a multiple of 16; `crc` is the raw (uninverted) register.
PD_CRC_TARGET uint32_t Crc32Folded(const unsigned char* p, size_t size, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = Fold(x0, k3k4, Load128(p));
  }

  // 128 -> 64 bits: the low half times k4, added to the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5, added to the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, then remainder = x0 ^ q * P'.
  __m128i q = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10),
                            low32);
  q = _mm_clmulepi64_si128(q, poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef PD_CRC_TARGET

bool HasCarrylessMultiply() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

uint32_t Crc32Portable(const void* data, size_t size, uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 16; p += 16, size -= 16) {
    const uint32_t w0 = LoadLittleEndian32(p) ^ crc;
    const uint32_t w1 = LoadLittleEndian32(p + 4);
    const uint32_t w2 = LoadLittleEndian32(p + 8);
    const uint32_t w3 = LoadLittleEndian32(p + 12);
    crc = kSlice[15][w0 & 0xFFu] ^ kSlice[14][(w0 >> 8) & 0xFFu] ^
          kSlice[13][(w0 >> 16) & 0xFFu] ^ kSlice[12][w0 >> 24] ^
          kSlice[11][w1 & 0xFFu] ^ kSlice[10][(w1 >> 8) & 0xFFu] ^
          kSlice[9][(w1 >> 16) & 0xFFu] ^ kSlice[8][w1 >> 24] ^
          kSlice[7][w2 & 0xFFu] ^ kSlice[6][(w2 >> 8) & 0xFFu] ^
          kSlice[5][(w2 >> 16) & 0xFFu] ^ kSlice[4][w2 >> 24] ^
          kSlice[3][w3 & 0xFFu] ^ kSlice[2][(w3 >> 8) & 0xFFu] ^
          kSlice[1][(w3 >> 16) & 0xFFu] ^ kSlice[0][w3 >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kSlice[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  static const bool kFold = HasCarrylessMultiply();
  if (kFold && size >= 64) {
    const size_t folded = size & ~size_t{15};
    crc = ~Crc32Folded(p, folded, ~crc);
    p += folded;
    size -= folded;
  }
#endif
  return internal::Crc32Portable(p, size, crc);
}

}  // namespace pipedream
