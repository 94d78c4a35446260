#include "bits/crc32.hpp"

#include <array>

#include "bits/simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace repro::bits {
namespace {

constexpr std::array<u32, 256> kTable = [] {
  std::array<u32, 256> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[i] = c;
  }
  return t;
}();

/// Advance the CRC register `c` (the inverted running CRC) over p[0, n).
inline u32 table_update(u32 c, const u8* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

// Folding constants in the bit-reflected domain, each (x^k mod P) reflected
// and shifted left by one (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel 2009; the scheme of zlib's and
// Chromium's crc32_simd and of Linux's crc32-pclmul):
//   k1 = x^544, k2 = x^480   fold a lane 512 bits ahead (four lanes);
//   k3 = x^160, k4 = x^96    fold one lane into the next (128 bits);
//   k5 = x^64                fold 96 bits to 64;
//   P' and mu = x^64 / P     Barrett reduction to 32 bits.
alignas(16) constexpr u64 kK1K2[2] = {0x154442bd4, 0x1c6e41596};
alignas(16) constexpr u64 kK3K4[2] = {0x1751997d0, 0x0ccaa009e};
alignas(16) constexpr u64 kK5[2] = {0x163cd6124, 0};
alignas(16) constexpr u64 kPoly[2] = {0x1db710641, 0x1f7011641};

/// a * k across the 128-bit lane, low half by k.lo and high half by k.hi,
/// plus `in`: one fold step.
PFPL_TARGET_AVX512 inline __m128i fold(__m128i a, __m128i k, __m128i in) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), in);
}

/// Advance the CRC register `c` over p[0, n); n >= 64 and n % 16 == 0.
/// Unaligned loads only, so `p` may have any alignment.
PFPL_TARGET_AVX512 u32 clmul_update(u32 c, const u8* p, std::size_t n) {
  const auto load = [](const u8* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

  // 128 -> 96 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00));

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif

}  // namespace

namespace scalar {

u32 crc32(const void* data, std::size_t n, u32 seed) {
  return ~table_update(~seed, static_cast<const u8*>(data), n);
}

}  // namespace scalar

namespace avx512 {

u32 crc32(const void* data, std::size_t n, u32 seed) {
  const u8* p = static_cast<const u8*>(data);
  u32 c = ~seed;
#if defined(__x86_64__)
  if (n >= 64) {
    const std::size_t m = n & ~std::size_t{15};
    c = clmul_update(c, p, m);
    p += m;
    n -= m;
  }
#endif
  return ~table_update(c, p, n);
}

}  // namespace avx512

u32 crc32(const void* data, std::size_t n, u32 seed) {
  if (n >= 64 && simd_tier() == Tier::Avx512) return avx512::crc32(data, n, seed);
  return scalar::crc32(data, n, seed);
}

}  // namespace repro::bits
