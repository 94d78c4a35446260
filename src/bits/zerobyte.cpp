#include "bits/zerobyte.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>

#include "bits/simd.hpp"
#include "bits/zerobyte_kernels.hpp"

namespace repro::bits {
namespace {

inline std::size_t bitmap_bytes(std::size_t n) { return (n + 7) / 8; }

inline bool bit(const u8* bitmap, std::size_t i) { return (bitmap[i >> 3] >> (i & 7)) & 1u; }

// --- scalar tier -----------------------------------------------------------

std::size_t scalar_zero_bitmap(const u8* data, std::size_t n, u8* bitmap) {
  std::fill(bitmap, bitmap + bitmap_bytes(n), u8{0});
  std::size_t nz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool set = data[i] != 0;
    bitmap[i >> 3] |= static_cast<u8>(set << (i & 7));
    nz += set;
  }
  return nz;
}

std::size_t scalar_repeat_bitmap(const u8* in, std::size_t m, u8* bitmap, u8* survivors) {
  std::fill(bitmap, bitmap + bitmap_bytes(m), u8{0});
  u8 prev = 0;
  std::size_t ns = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (in[i] != prev) {
      bitmap[i >> 3] |= static_cast<u8>(1u << (i & 7));
      survivors[ns++] = in[i];
      prev = in[i];
    }
  }
  return ns;
}

void scalar_gather_nonzero(const u8* data, std::size_t n, const u8*, u8* out) {
  std::size_t o = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (data[i] != 0) out[o++] = data[i];
}

std::size_t scalar_count_bits(const u8* bitmap, std::size_t nbits) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nbits / 8; ++i)
    c += static_cast<std::size_t>(std::popcount(bitmap[i]));
  for (std::size_t i = nbits / 8 * 8; i < nbits; ++i) c += bit(bitmap, i);
  return c;
}

void scalar_fill_repeat(const u8* bitmap, const u8* survivors, std::size_t m, u8* out) {
  u8 prev = 0;
  std::size_t ri = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (bit(bitmap, i)) prev = survivors[ri++];
    out[i] = prev;
  }
}

void scalar_fill_zero(const u8* bitmap, const u8* nonzero, std::size_t n, u8* data) {
  std::size_t zi = 0;
  for (std::size_t i = 0; i < n; ++i) data[i] = bit(bitmap, i) ? nonzero[zi++] : u8{0};
}

// --- level structure, shared by both tiers ---------------------------------

/// Byte sizes of B0..B3 for `n` input bytes; every level is derivable from
/// n alone.
struct Levels {
  std::array<std::size_t, kZeroByteLevels + 1> size;
  explicit Levels(std::size_t n) {
    size[0] = bitmap_bytes(n);
    for (int lvl = 1; lvl <= kZeroByteLevels; ++lvl) size[lvl] = bitmap_bytes(size[lvl - 1]);
  }
};

/// A workspace region for a level of nominal size x: whole 64-byte blocks
/// plus kZeroByteSlack, which covers every over-read and over-write the
/// kernel contracts allow.
inline std::size_t region(std::size_t x) { return (x + 63) / 64 * 64 + kZeroByteSlack; }

/// Level buffers: on the stack for chunk-sized inputs (a 16 KiB chunk needs
/// about 5 KiB), on the heap only for larger standalone calls.
class Workspace {
 public:
  explicit Workspace(std::size_t bytes) {
    if (bytes > sizeof(inline_)) {
      heap_.reset(new u8[bytes]);
      p_ = heap_.get();
    }
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The next `bytes` of the workspace.
  u8* next(std::size_t bytes) {
    u8* r = p_ + used_;
    used_ += bytes;
    return r;
  }

 private:
  alignas(64) u8 inline_[6144];
  std::unique_ptr<u8[]> heap_;
  u8* p_ = inline_;
  std::size_t used_ = 0;
};

std::size_t encode_with(const ZeroByteKernels& k, const u8* data, std::size_t n, u8* out) {
  const Levels lv(n);
  std::size_t need = 0;
  for (int lvl = 0; lvl <= kZeroByteLevels; ++lvl) need += region(lv.size[lvl]);
  for (int lvl = 0; lvl < kZeroByteLevels; ++lvl) need += region(lv.size[lvl]);
  Workspace ws(need);
  std::array<u8*, kZeroByteLevels + 1> bitmaps;  // B_k
  std::array<u8*, kZeroByteLevels> repeats;      // R_k = survivors of B_k
  for (int lvl = 0; lvl <= kZeroByteLevels; ++lvl) bitmaps[lvl] = ws.next(region(lv.size[lvl]));
  for (int lvl = 0; lvl < kZeroByteLevels; ++lvl) repeats[lvl] = ws.next(region(lv.size[lvl]));

  // Level 0: zero-byte bitmap over the data; then each bitmap's repeat
  // bitmap and non-repeating bytes.
  const std::size_t nonzero = k.zero_bitmap(data, n, bitmaps[0]);
  std::array<std::size_t, kZeroByteLevels> nrep;
  for (int lvl = 0; lvl < kZeroByteLevels; ++lvl)
    nrep[lvl] = k.repeat_bitmap(bitmaps[lvl], lv.size[lvl], bitmaps[lvl + 1], repeats[lvl]);

  // Emit the top-level bitmap, then R_{levels-1} .. R_0, then the nonzero
  // bytes — the order the decoder unwinds them.
  std::size_t pos = lv.size[kZeroByteLevels];
  std::memcpy(out, bitmaps[kZeroByteLevels], pos);
  for (int lvl = kZeroByteLevels - 1; lvl >= 0; --lvl) {
    std::memcpy(out + pos, repeats[lvl], nrep[lvl]);
    pos += nrep[lvl];
  }
  k.gather_nonzero(data, n, bitmaps[0], out + pos);
  return pos + nonzero;
}

std::size_t decode_with(const ZeroByteKernels& k, const u8* in, std::size_t in_size, u8* data,
                        std::size_t n) {
  const Levels lv(n);
  std::size_t need = 0;
  for (int lvl = 0; lvl <= kZeroByteLevels; ++lvl) need += region(lv.size[lvl]);
  Workspace ws(need);
  std::array<u8*, kZeroByteLevels + 1> bitmaps;
  for (int lvl = 0; lvl <= kZeroByteLevels; ++lvl) bitmaps[lvl] = ws.next(region(lv.size[lvl]));

  std::size_t pos = 0;
  auto take = [&](std::size_t len) {
    if (len > in_size - pos) throw CompressionError("zerobyte_decode: truncated stream");
    const u8* p = in + pos;
    pos += len;
    return p;
  };

  // Read the top-level bitmap (into the workspace, so kernels may read it
  // in whole words), then reconstruct each lower bitmap in turn: count its
  // survivors, take them in one slice, expand.
  const std::size_t top = lv.size[kZeroByteLevels];
  std::memset(bitmaps[kZeroByteLevels], 0, region(top));
  const u8* t = take(top);
  if (top != 0) std::memcpy(bitmaps[kZeroByteLevels], t, top);
  for (int lvl = kZeroByteLevels - 1; lvl >= 0; --lvl) {
    const u8* upper = bitmaps[lvl + 1];
    const u8* r = take(k.count_bits(upper, lv.size[lvl]));
    k.fill_repeat(upper, r, lv.size[lvl], bitmaps[lvl]);
  }

  // B0 is now rebuilt; expand the data bytes.
  const u8* z = take(k.count_bits(bitmaps[0], n));
  k.fill_zero(bitmaps[0], z, n, data);
  return pos;
}

}  // namespace

const ZeroByteKernels kScalarZeroByte = {
    scalar_zero_bitmap, scalar_repeat_bitmap, scalar_gather_nonzero,
    scalar_count_bits,  scalar_fill_repeat,   scalar_fill_zero,
};

namespace scalar {
std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out) {
  return encode_with(kScalarZeroByte, data, n, out);
}
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  return decode_with(kScalarZeroByte, in, in_size, data, n);
}
}  // namespace scalar

namespace avx512 {
std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out) {
  return encode_with(kAvx512ZeroByte, data, n, out);
}
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  return decode_with(kAvx512ZeroByte, in, in_size, data, n);
}
}  // namespace avx512

std::size_t zerobyte_encode(const u8* data, std::size_t n, u8* out) {
  return encode_with(simd_tier() == Tier::Avx512 ? kAvx512ZeroByte : kScalarZeroByte, data, n,
                     out);
}

void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  const std::size_t start = out.size();
  out.resize(start + zerobyte_bound(n));
  out.resize(start + zerobyte_encode(data, n, out.data() + start));
}

std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  return decode_with(simd_tier() == Tier::Avx512 ? kAvx512ZeroByte : kScalarZeroByte, in,
                     in_size, data, n);
}

}  // namespace repro::bits
