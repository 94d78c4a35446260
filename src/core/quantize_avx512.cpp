// AVX-512 tier of the f32 ABS/NOA quantizer and its decoder.
//
// Eight values per step, widened to double lanes, with exactly the scalar
// AbsQuantizer<float>::encode arithmetic: x = v * inv, the 2^52 rounding
// trick, the range check, bin -> double -> * 2eps -> float reconstruction,
// and the decode-verify |v - r| <= eps in double. Every operation is an
// IEEE mul/add/sub/convert in the scalar order (no FMA), so each lane's word
// equals the scalar word bit for bit; only the selects are masks instead of
// branches.
#include "core/quantizers.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// GCC 12's <immintrin.h> builds _mm512_undefined_*() from a self-initialised
// variable, which -Wuninitialized reports wherever an intrinsic using it is
// inlined (GCC bug 105593, fixed in GCC 13). Nothing here reads such a value.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace repro::pfpl::avx512 {
namespace {

using FT = fpmath::FloatTraits<float>;

PFPL_TARGET_AVX512 inline __mmask8 lanes(std::size_t rem) {
  return rem >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << rem) - 1);
}

}  // namespace

PFPL_TARGET_AVX512 void abs_encode(const AbsQuantizer<float>& q, const float* in, u32* out,
                                   std::size_t n) {
  const __m512d inv = _mm512_set1_pd(q.inv());
  const __m512d two_eps = _mm512_set1_pd(q.two_eps());
  const __m512d eps = _mm512_set1_pd(q.eps());
  const __m512d two52 = _mm512_set1_pd(4503599627370496.0);
  const __m512d max_bin = _mm512_set1_pd(static_cast<double>(AbsQuantizer<float>::max_bin));
  const __m512d neg_max_bin = _mm512_set1_pd(-static_cast<double>(AbsQuantizer<float>::max_bin));
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m256i exp_mask = _mm256_set1_epi32(static_cast<int>(FT::exponent_mask));
  const __m256i abs_mask = _mm256_set1_epi32(static_cast<int>(~FT::sign_mask));
  // Degenerate mode bins exact zeros only (to word 0).
  const __mmask8 binning = q.degenerate() ? 0 : 0xFF;
  const __mmask8 zeroing = q.degenerate() ? 0xFF : 0;
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 valid = lanes(n - i);
    const __m256 v = _mm256_maskz_loadu_ps(valid, in + i);
    const __m256i b = _mm256_castps_si256(v);
    const __m512d vd = _mm512_cvtps_pd(v);
    // bd = round_half_even(v * inv): (x + c) - c with c = copysign(2^52, x)
    // where |x| < 2^52, x itself otherwise.
    const __m512d x = _mm512_mul_pd(vd, inv);
    const __m512d c = _mm512_or_pd(_mm512_and_pd(x, sign), two52);
    const __mmask8 small = _mm512_cmp_pd_mask(_mm512_andnot_pd(sign, x), two52, _CMP_LT_OQ);
    const __m512d bd = _mm512_mask_sub_pd(x, small, _mm512_add_pd(x, c), c);
    const __mmask8 in_range = _mm512_cmp_pd_mask(bd, neg_max_bin, _CMP_GE_OQ) &
                              _mm512_cmp_pd_mask(bd, max_bin, _CMP_LE_OQ);
    // Lanes out of range convert to garbage; they are not selected below.
    const __m256i bin = _mm512_cvttpd_epi32(bd);
    const __m256 r = _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_cvtepi32_pd(bin), two_eps));
    const __m512d err = _mm512_andnot_pd(sign, _mm512_sub_pd(vd, _mm512_cvtps_pd(r)));
    const __mmask8 verified = _mm512_cmp_pd_mask(err, eps, _CMP_LE_OQ);
    const __mmask8 finite = _mm256_cmpneq_epi32_mask(_mm256_and_si256(b, exp_mask), exp_mask);
    const __m256i word = _mm256_or_si256(_mm256_slli_epi32(_mm256_abs_epi32(bin), 1),
                                         _mm256_srli_epi32(bin, 31));
    const __mmask8 zero = zeroing & _mm256_testn_epi32_mask(b, abs_mask);
    const __m256i lossless = _mm256_maskz_mov_epi32(static_cast<__mmask8>(~zero), b);
    const __m256i w =
        _mm256_mask_blend_epi32(binning & finite & in_range & verified, lossless, word);
    _mm256_mask_storeu_epi32(out + i, valid, w);
  }
}

PFPL_TARGET_AVX512 void abs_decode(const AbsQuantizer<float>& q, const u32* in, float* out,
                                   std::size_t n) {
  const __m512d two_eps = _mm512_set1_pd(q.two_eps());
  const __m256i limit = _mm256_set1_epi32(static_cast<int>(FT::denormal_limit));
  const __m256i one = _mm256_set1_epi32(1);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 valid = lanes(n - i);
    const __m256i w = _mm256_maskz_loadu_epi32(valid, in + i);
    const __mmask8 is_bin = _mm256_cmplt_epu32_mask(w, limit);
    // bin = (w & 1) ? -(w >> 1) : (w >> 1), exact in int32 for bin words.
    const __m256i mag = _mm256_srli_epi32(w, 1);
    const __mmask8 neg = _mm256_test_epi32_mask(w, one);
    const __m256i bin = _mm256_mask_sub_epi32(mag, neg, _mm256_setzero_si256(), mag);
    const __m256 r = _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_cvtepi32_pd(bin), two_eps));
    const __m256i v = _mm256_mask_blend_epi32(is_bin, w, _mm256_castps_si256(r));
    _mm256_mask_storeu_epi32(out + i, valid, v);
  }
}

}  // namespace repro::pfpl::avx512

#else  // not x86-64: simd_tier() is always Scalar; kept for linking only.

namespace repro::pfpl::avx512 {

void abs_encode(const AbsQuantizer<float>& q, const float* in, u32* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = q.encode(in[i]);
}

void abs_decode(const AbsQuantizer<float>& q, const u32* in, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = q.decode(in[i]);
}

}  // namespace repro::pfpl::avx512

#endif
