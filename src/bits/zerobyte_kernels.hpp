// Per-tier primitives of zero-byte elimination (private to src/bits).
//
// zerobyte.cpp owns the level structure, the workspace and every bounds
// check; a tier supplies only these data-parallel steps. Buffer contracts,
// which both tiers may use in full:
//   * a bitmap of m bits is read and written in whole 8-byte words, i.e.
//     (m + 63) / 64 * 8 bytes; bits at or past m are ignored on read;
//   * survivor and gather outputs may be written up to kZeroByteSlack bytes
//     past their end; fill_repeat may write its output up to the next
//     multiple of 64 bytes;
//   * survivors and nonzero inputs are read exactly (count bytes), and
//     fill_zero writes exactly n bytes — those point into caller memory.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace repro::bits {

struct ZeroByteKernels {
  /// Zero bitmap of data[0, n) (bit set = byte nonzero); returns the count
  /// of nonzero bytes.
  std::size_t (*zero_bitmap)(const u8* data, std::size_t n, u8* bitmap);
  /// Repeat bitmap of in[0, m) (bit set = byte differs from its predecessor,
  /// which is 0x00 for byte 0) and the non-repeating bytes; returns their
  /// count.
  std::size_t (*repeat_bitmap)(const u8* in, std::size_t m, u8* bitmap, u8* survivors);
  /// The nonzero bytes of data[0, n) in order; `bitmap` is its zero bitmap.
  void (*gather_nonzero)(const u8* data, std::size_t n, const u8* bitmap, u8* out);
  /// Set bits among the first `nbits` bits of `bitmap`.
  std::size_t (*count_bits)(const u8* bitmap, std::size_t nbits);
  /// Inverse of repeat_bitmap: m bytes, each the latest survivor at or
  /// before its position (0x00 before the first).
  void (*fill_repeat)(const u8* bitmap, const u8* survivors, std::size_t m, u8* out);
  /// Inverse of zero_bitmap + gather_nonzero: n bytes, the nonzero bytes
  /// where the bitmap is set and 0x00 elsewhere.
  void (*fill_zero)(const u8* bitmap, const u8* nonzero, std::size_t n, u8* data);
};

extern const ZeroByteKernels kScalarZeroByte;
extern const ZeroByteKernels kAvx512ZeroByte;

}  // namespace repro::bits
