// CRC-32 (IEEE 802.3 polynomial, reflected) over arbitrary byte ranges.
//
// Used wherever the system needs to tell "bytes arrived/persisted intact" from "bytes were
// torn or flipped": the checkpoint file footer and the runtime's inter-stage message
// checksums. Incremental: feed chunks through repeated calls, passing the previous result.
//
// Every boundary byte of a pipeline passes through here several times per hop, so Crc32
// runs at memory speed: on x86-64 CPUs with carry-less multiply (PCLMULQDQ) it folds 64-byte
// blocks, and elsewhere (and for short inputs and tails) it uses slice-by-16 tables. Both
// paths compute the same function; crc32.cc explains the folding.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace pipedream {

// Extends `crc` (the running checksum of everything fed so far; 0 for a fresh stream) with
// `size` bytes at `data`. Chaining holds: Crc32(b, Crc32(a, c)) == Crc32(a‖b, c).
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

namespace internal {

// The table-driven path Crc32 falls back to, exposed so tests can check it on CPUs that
// never take it.
uint32_t Crc32Portable(const void* data, size_t size, uint32_t crc = 0);

}  // namespace internal
}  // namespace pipedream

#endif  // SRC_COMMON_CRC32_H_
