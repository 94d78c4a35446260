// Zero-byte elimination with iterated bitmap compression — final lossless
// stage (paper, Section III-D / Figure 5).
//
// A bitmap marks which input bytes are nonzero; zero bytes are dropped. The
// bitmap itself is then compressed by a similar scheme: a second bitmap marks
// which bitmap bytes differ from their predecessor ("non-repeating"), and
// only those are kept. This is iterated until the surviving bitmap is only a
// few bytes long (for a full 16 KiB chunk: 2048 -> 256 -> 32 -> 4 bytes).
//
// Stream layout, matching the order the decoder consumes it:
//   [top-level bitmap B3] [R2] [R1] [R0] [NZ]
// where B_{k+1} is the repeat-bitmap of B_k, R_k holds the non-repeating
// bytes of B_k, and NZ holds the nonzero data bytes.
//
// Both kernel tiers (bits/simd.hpp) share the level structure, the bounds
// checks and the error paths; they differ only in how a level's bitmap and
// survivors are built or expanded. Working memory for a chunk-sized input
// lives on the stack: the chunk path never touches the heap.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace repro::bits {

/// Number of bitmap-compression iterations applied on top of the zero-byte
/// bitmap (paper: "iteratively applied ... until the bitmap is only a few
/// bytes long").
inline constexpr int kZeroByteLevels = 3;

/// Bytes the vector tier may write past the end of an encoded stream.
inline constexpr std::size_t kZeroByteSlack = 64;

/// Capacity the pointer form of zerobyte_encode needs for `n` input bytes:
/// the worst-case encoded size, n + every bitmap level, plus kZeroByteSlack.
constexpr std::size_t zerobyte_bound(std::size_t n) {
  std::size_t total = n + kZeroByteSlack;
  for (int lvl = 0; lvl <= kZeroByteLevels; ++lvl) {
    n = (n + 7) / 8;
    total += n;
  }
  return total;
}

/// Encode `n` bytes into `out`, which must hold zerobyte_bound(n) bytes.
/// Returns the encoded size. Callers cap expansion at the chunk level by
/// falling back to raw storage.
std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out);

/// Encode `n` bytes; appends the compressed representation to `out`.
void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out);

/// Decode exactly `n` bytes into `data` from `in` (at most `in_size` bytes
/// available). Returns the number of input bytes consumed.
/// Throws CompressionError if the stream is truncated.
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);

/// The tiers behind the functions above, callable directly for differential
/// tests. The avx512 ones may run only when simd_tier() == Tier::Avx512.
namespace scalar {
std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out);
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);
}  // namespace scalar
namespace avx512 {
std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out);
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);
}  // namespace avx512

}  // namespace repro::bits
