// Crc32 (src/common/crc32.h) against known answers and a bytewise reference.
//
// The checkpoint footer and every PDM1 frame on the wire carry this checksum, so its
// fast paths must compute exactly the bytewise IEEE CRC-32 they replaced: same values, and
// the same chaining over split inputs.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace pipedream {
namespace {

// The textbook one-byte-at-a-time CRC-32 (reflected polynomial 0xEDB88320).
uint32_t BytewiseCrc32(const unsigned char* p, size_t size, uint32_t crc) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(Crc32Test, KnownAnswers) {
  struct Case {
    std::string input;
    uint32_t crc;
  };
  const Case cases[] = {
      {"", 0x00000000u},
      {"a", 0xE8B7BE43u},
      {"abc", 0x352441C2u},
      {"123456789", 0xCBF43926u},
      {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
      {std::string(32, '\x00'), 0x190A55ADu},
      {std::string(32, '\xFF'), 0xFF6CAB0Bu},
  };
  for (const Case& c : cases) {
    const auto* p = reinterpret_cast<const unsigned char*>(c.input.data());
    EXPECT_EQ(Crc32(p, c.input.size()), c.crc) << '"' << c.input << '"';
    EXPECT_EQ(internal::Crc32Portable(p, c.input.size()), c.crc) << '"' << c.input << '"';
    EXPECT_EQ(BytewiseCrc32(p, c.input.size(), 0), c.crc) << '"' << c.input << '"';
  }
}

// Checks both paths on one (offset, length, initial value, split) case: the whole range in
// one call, and the same range fed as two chained calls.
void ExpectMatchesReference(const std::vector<unsigned char>& buffer, size_t offset,
                            size_t size, uint32_t init, size_t split) {
  const unsigned char* p = buffer.data() + offset;
  const uint32_t want = BytewiseCrc32(p, size, init);
  ASSERT_EQ(Crc32(p, size, init), want)
      << "offset " << offset << " size " << size << " init " << init;
  ASSERT_EQ(Crc32(p + split, size - split, Crc32(p, split, init)), want)
      << "offset " << offset << " size " << size << " init " << init << " split " << split;
  ASSERT_EQ(internal::Crc32Portable(p, size, init), want)
      << "offset " << offset << " size " << size << " init " << init;
  ASSERT_EQ(internal::Crc32Portable(p + split, size - split,
                                    internal::Crc32Portable(p, split, init)),
            want)
      << "offset " << offset << " size " << size << " init " << init << " split " << split;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryOffsetAndLength) {
  Rng rng(2009);
  constexpr size_t kMaxSize = 128 * 1024;
  std::vector<unsigned char> buffer(kMaxSize + 64);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextU64());
  }
  const auto random_init = [&rng] {
    // Every fourth case starts a fresh stream; the rest continue an arbitrary one.
    return rng.NextU64() % 4 == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
  };
  // Every alignment against every length up to well past the 64-byte folding threshold.
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t size = 0; size <= 200; ++size) {
      ExpectMatchesReference(buffer, offset, size, random_init(),
                             static_cast<size_t>(rng.NextU64() % (size + 1)));
    }
  }
  // Every length up to 4 KiB, plus message-sized inputs, at random alignments.
  std::vector<size_t> sizes;
  for (size_t size = 0; size <= 4096; ++size) {
    sizes.push_back(size);
  }
  sizes.push_back(64 * 1024);
  sizes.push_back(kMaxSize);
  for (const size_t size : sizes) {
    ExpectMatchesReference(buffer, static_cast<size_t>(rng.NextU64() % 64), size,
                           random_init(), static_cast<size_t>(rng.NextU64() % (size + 1)));
  }
}

}  // namespace
}  // namespace pipedream
