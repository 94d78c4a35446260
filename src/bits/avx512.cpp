// AVX-512 tier of the bit kernels: tile bit transposes in zmm registers and
// the zero-byte elimination primitives (vptestmb / vpcmpb masks,
// vpcompressb / vpexpandb, vpermb forward fill).
//
// Memory discipline: a partial 64-byte block is read with a masked load and
// written with a masked store, so no access touches a byte outside its
// buffer and no pointer is formed before a buffer's start. Full-width
// stores past a logical end land only in the workspace slack documented in
// zerobyte_kernels.hpp.
#include <cstring>

#include "bits/bitshuffle.hpp"
#include "bits/simd.hpp"
#include "bits/zerobyte_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// GCC 12's <immintrin.h> builds _mm512_undefined_*() from a self-initialised
// variable, which -Wuninitialized reports wherever an intrinsic using it is
// inlined (GCC bug 105593, fixed in GCC 13). Nothing here reads such a value.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace repro::bits {
namespace {

// --- bit transposes --------------------------------------------------------
//
// The scalar transpose_bits_* run log2(w) masked-swap steps; step j pairs
// word k with word k + j (bit j of k clear) and swaps bit blocks of width j.
// Here the pairs of a step are either whole registers apart (a lane-wise
// step on two registers) or lanes of one register (a lane permute gives
// each lane its partner, and a blend keeps the low lane's or the high
// lane's half of the exchange).

/// Step between registers: `lo` holds words k, `hi` words k + j.
template <int J>
PFPL_TARGET_AVX512 inline void swap_regs32(__m512i& lo, __m512i& hi, __m512i m) {
  const __m512i t = _mm512_and_si512(_mm512_xor_si512(lo, _mm512_srli_epi32(hi, J)), m);
  lo = _mm512_xor_si512(lo, t);
  hi = _mm512_xor_si512(hi, _mm512_slli_epi32(t, J));
}

template <int J>
PFPL_TARGET_AVX512 inline void swap_regs64(__m512i& lo, __m512i& hi, __m512i m) {
  const __m512i t = _mm512_and_si512(_mm512_xor_si512(lo, _mm512_srli_epi64(hi, J)), m);
  lo = _mm512_xor_si512(lo, t);
  hi = _mm512_xor_si512(hi, _mm512_slli_epi64(t, J));
}

/// Step within a register: `p` is `x` with every lane replaced by its
/// partner's value; `high` marks the lanes with bit j of their index set.
template <int J>
PFPL_TARGET_AVX512 inline __m512i swap_lanes32(__m512i x, __m512i p, __m512i m, __mmask16 high) {
  const __m512i t_lo = _mm512_and_si512(_mm512_xor_si512(x, _mm512_srli_epi32(p, J)), m);
  const __m512i t_hi =
      _mm512_slli_epi32(_mm512_and_si512(_mm512_xor_si512(p, _mm512_srli_epi32(x, J)), m), J);
  return _mm512_xor_si512(x, _mm512_mask_blend_epi32(high, t_lo, t_hi));
}

template <int J>
PFPL_TARGET_AVX512 inline __m512i swap_lanes64(__m512i x, __m512i p, __m512i m, __mmask8 high) {
  const __m512i t_lo = _mm512_and_si512(_mm512_xor_si512(x, _mm512_srli_epi64(p, J)), m);
  const __m512i t_hi =
      _mm512_slli_epi64(_mm512_and_si512(_mm512_xor_si512(p, _mm512_srli_epi64(x, J)), m), J);
  return _mm512_xor_si512(x, _mm512_mask_blend_epi64(high, t_lo, t_hi));
}

// Partner permutes: swap 256-bit halves, 128-bit quarters, 64-bit and
// 32-bit neighbours.
PFPL_TARGET_AVX512 inline __m512i swap256(__m512i x) {
  return _mm512_shuffle_i64x2(x, x, 0x4E);
}
PFPL_TARGET_AVX512 inline __m512i swap128(__m512i x) {
  return _mm512_shuffle_i64x2(x, x, 0xB1);
}
PFPL_TARGET_AVX512 inline __m512i swap64(__m512i x) {
  return _mm512_shuffle_epi32(x, _MM_PERM_BADC);
}
PFPL_TARGET_AVX512 inline __m512i swap32(__m512i x) {
  return _mm512_shuffle_epi32(x, _MM_PERM_CDAB);
}

PFPL_TARGET_AVX512 inline __m512i lanes32(__m512i x) {
  x = swap_lanes32<8>(x, swap256(x), _mm512_set1_epi32(0x00FF00FF), 0xFF00);
  x = swap_lanes32<4>(x, swap128(x), _mm512_set1_epi32(0x0F0F0F0F), 0xF0F0);
  x = swap_lanes32<2>(x, swap64(x), _mm512_set1_epi32(0x33333333), 0xCCCC);
  return swap_lanes32<1>(x, swap32(x), _mm512_set1_epi32(0x55555555), 0xAAAA);
}

PFPL_TARGET_AVX512 void transpose32(u32* a) {
  __m512i lo = _mm512_loadu_si512(a);
  __m512i hi = _mm512_loadu_si512(a + 16);
  swap_regs32<16>(lo, hi, _mm512_set1_epi32(0x0000FFFF));
  _mm512_storeu_si512(a, lanes32(lo));
  _mm512_storeu_si512(a + 16, lanes32(hi));
}

PFPL_TARGET_AVX512 inline __m512i lanes64(__m512i x) {
  x = swap_lanes64<4>(x, swap256(x), _mm512_set1_epi64(0x0F0F0F0F0F0F0F0FLL), 0xF0);
  x = swap_lanes64<2>(x, swap128(x), _mm512_set1_epi64(0x3333333333333333LL), 0xCC);
  return swap_lanes64<1>(x, swap64(x), _mm512_set1_epi64(0x5555555555555555LL), 0xAA);
}

PFPL_TARGET_AVX512 void transpose64(u64* a) {
  __m512i r[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm512_loadu_si512(a + 8 * i);
  const __m512i m32 = _mm512_set1_epi64(0x00000000FFFFFFFFLL);
  const __m512i m16 = _mm512_set1_epi64(0x0000FFFF0000FFFFLL);
  const __m512i m8 = _mm512_set1_epi64(0x00FF00FF00FF00FFLL);
  for (int i = 0; i < 4; ++i) swap_regs64<32>(r[i], r[i + 4], m32);
  for (int i : {0, 1, 4, 5}) swap_regs64<16>(r[i], r[i + 2], m16);
  for (int i : {0, 2, 4, 6}) swap_regs64<8>(r[i], r[i + 1], m8);
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(a + 8 * i, lanes64(r[i]));
}

// --- zero-byte elimination primitives --------------------------------------

/// Lanes [0, rem) of a 64-byte block, all of them when rem >= 64.
PFPL_TARGET_AVX512 inline __mmask64 block_mask(std::size_t rem) {
  return rem >= 64 ? ~__mmask64{0} : _bzhi_u64(~0ull, static_cast<unsigned>(rem));
}

PFPL_TARGET_AVX512 inline u64 load_bits(const u8* bitmap, std::size_t block) {
  u64 b;
  std::memcpy(&b, bitmap + block * 8, 8);
  return b;
}

PFPL_TARGET_AVX512 inline void store_bits(u8* bitmap, std::size_t block, u64 b) {
  std::memcpy(bitmap + block * 8, &b, 8);
}

PFPL_TARGET_AVX512 std::size_t zero_bitmap(const u8* data, std::size_t n, u8* bitmap) {
  std::size_t nz = 0;
  for (std::size_t i = 0; i < n; i += 64) {
    const __m512i v = _mm512_maskz_loadu_epi8(block_mask(n - i), data + i);
    const u64 b = _mm512_test_epi8_mask(v, v);
    store_bits(bitmap, i / 64, b);
    nz += static_cast<std::size_t>(_mm_popcnt_u64(b));
  }
  return nz;
}

PFPL_TARGET_AVX512 std::size_t repeat_bitmap(const u8* in, std::size_t m, u8* bitmap,
                                             u8* survivors) {
  // prev[j] = v[j - 1], and prev[0] = byte 63 of the previous block.
  alignas(64) u8 shift[64];
  for (int j = 0; j < 64; ++j) shift[j] = static_cast<u8>(j == 0 ? 127 : j - 1);
  const __m512i idx = _mm512_load_si512(shift);
  __m512i carry = _mm512_setzero_si512();
  std::size_t ns = 0;
  for (std::size_t i = 0; i < m; i += 64) {
    const __mmask64 valid = block_mask(m - i);
    const __m512i v = _mm512_maskz_loadu_epi8(valid, in + i);
    const __m512i prev = _mm512_permutex2var_epi8(v, idx, carry);
    const u64 b = _mm512_mask_cmpneq_epi8_mask(valid, v, prev);
    store_bits(bitmap, i / 64, b);
    _mm512_storeu_si512(survivors + ns, _mm512_maskz_compress_epi8(b, v));
    ns += static_cast<std::size_t>(_mm_popcnt_u64(b));
    carry = v;
  }
  return ns;
}

PFPL_TARGET_AVX512 void gather_nonzero(const u8* data, std::size_t n, const u8* bitmap,
                                       u8* out) {
  for (std::size_t i = 0; i < n; i += 64) {
    const __m512i v = _mm512_maskz_loadu_epi8(block_mask(n - i), data + i);
    const u64 b = load_bits(bitmap, i / 64);
    _mm512_storeu_si512(out, _mm512_maskz_compress_epi8(b, v));
    out += _mm_popcnt_u64(b);
  }
}

PFPL_TARGET_AVX512 std::size_t count_bits(const u8* bitmap, std::size_t nbits) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nbits; i += 64) {
    const u64 b = load_bits(bitmap, i / 64) & block_mask(nbits - i);
    c += static_cast<std::size_t>(_mm_popcnt_u64(b));
  }
  return c;
}

/// The `count` bytes at p, in lanes [0, count).
PFPL_TARGET_AVX512 inline __m512i load_prefix(const u8* p, std::size_t count) {
  return _mm512_maskz_loadu_epi8(block_mask(count), p);
}

PFPL_TARGET_AVX512 void fill_repeat(const u8* bitmap, const u8* survivors, std::size_t m,
                                    u8* out) {
  alignas(64) u8 rank1[64];
  for (int j = 0; j < 64; ++j) rank1[j] = static_cast<u8>(j + 1);
  const __m512i ranks = _mm512_load_si512(rank1);
  const __m512i iota = _mm512_sub_epi8(ranks, _mm512_set1_epi8(1));
  const __m512i last = _mm512_set1_epi8(63);
  // up_idx[s] moves lane j - 2^s to lane j (lanes below 2^s are zeroed).
  __m512i up_idx[6];
  for (int s = 0; s < 6; ++s)
    up_idx[s] = _mm512_sub_epi8(iota, _mm512_set1_epi8(static_cast<char>(1 << s)));
  __m512i carry = _mm512_setzero_si512();  // the byte before this block, in every lane
  for (std::size_t i = 0; i < m; i += 64) {
    const u64 b = load_bits(bitmap, i / 64) & block_mask(m - i);
    const std::size_t cnt = static_cast<std::size_t>(_mm_popcnt_u64(b));
    const __m512i s = load_prefix(survivors, cnt);
    // e[j] = 1-based rank of the last set bit at or before j, 0 if none:
    // place ranks at the set lanes, then a prefix max over the lanes.
    __m512i e = _mm512_maskz_expand_epi8(b, ranks);
    for (int s = 0; s < 6; ++s)
      e = _mm512_max_epu8(e, _mm512_maskz_permutexvar_epi8(~0ull << (1 << s), up_idx[s], e));
    const __m512i vals = _mm512_permutexvar_epi8(_mm512_sub_epi8(e, _mm512_set1_epi8(1)), s);
    const __mmask64 none = _mm512_cmpeq_epi8_mask(e, _mm512_setzero_si512());
    const __m512i v = _mm512_mask_blend_epi8(none, vals, carry);
    _mm512_storeu_si512(out + i, v);
    carry = _mm512_permutexvar_epi8(last, v);
    survivors += cnt;
  }
}

PFPL_TARGET_AVX512 void fill_zero(const u8* bitmap, const u8* nonzero, std::size_t n, u8* data) {
  for (std::size_t i = 0; i < n; i += 64) {
    const __mmask64 valid = block_mask(n - i);
    const u64 b = load_bits(bitmap, i / 64) & valid;
    const std::size_t cnt = static_cast<std::size_t>(_mm_popcnt_u64(b));
    const __m512i v = _mm512_maskz_expand_epi8(b, load_prefix(nonzero, cnt));
    _mm512_mask_storeu_epi8(data + i, valid, v);
    nonzero += cnt;
  }
}

}  // namespace

const ZeroByteKernels kAvx512ZeroByte = {
    zero_bitmap, repeat_bitmap, gather_nonzero, count_bits, fill_repeat, fill_zero,
};

namespace avx512 {

void bitshuffle(u32* w, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 32) transpose32(w + i);
}

void bitshuffle(u64* w, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 64) transpose64(w + i);
}

}  // namespace avx512
}  // namespace repro::bits

#else  // not x86-64: simd_tier() is always Scalar, so these only keep the
       // differential tests linking.

namespace repro::bits {

const ZeroByteKernels kAvx512ZeroByte = kScalarZeroByte;

namespace avx512 {
void bitshuffle(u32* w, std::size_t n) { scalar::bitshuffle(w, n); }
void bitshuffle(u64* w, std::size_t n) { scalar::bitshuffle(w, n); }
}  // namespace avx512

}  // namespace repro::bits

#endif
