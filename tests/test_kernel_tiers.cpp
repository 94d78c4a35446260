// Differential tests: the AVX-512 kernel tier against the scalar tier.
//
// Both tiers must produce identical bytes (and CRC-32 values) for every
// input, and on hostile input the decoders must fail the same way (same
// exception) or consume the same number of bytes. Each test calls the two tier entry points directly;
// the AVX-512 half is skipped when the CPU lacks the tier. The GPU-sim
// kernels stay scalar and are checked separately (test_sim_identity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bits/bitshuffle.hpp"
#include "bits/crc32.hpp"
#include "bits/simd.hpp"
#include "bits/zerobyte.hpp"
#include "core/quantizers.hpp"
#include "data/rng.hpp"
#include "fpmath/traits.hpp"

using namespace repro;

namespace {

bool have_avx512() { return bits::simd_tier() == bits::Tier::Avx512; }

#define REQUIRE_AVX512() \
  if (!have_avx512()) GTEST_SKIP() << "CPU lacks the AVX-512 kernel tier"

/// Byte patterns the zero-byte coder treats differently: all zero, all
/// nonzero, sparse, runs, and random.
std::vector<u8> pattern(std::size_t n, int kind, data::Rng& rng) {
  std::vector<u8> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = rng.next_u64();
    switch (kind) {
      case 0: d[i] = 0; break;
      case 1: d[i] = static_cast<u8>(r | 1); break;
      case 2: d[i] = (r % 13 == 0) ? static_cast<u8>(r >> 8) : 0; break;
      case 3: d[i] = static_cast<u8>((i / 37) % 3 == 0 ? 0 : (i / 200) + 1); break;
      default: d[i] = static_cast<u8>(r >> 32); break;
    }
  }
  return d;
}

std::vector<u8> encode_with(std::size_t (*enc)(const u8*, std::size_t, u8*),
                            const std::vector<u8>& d) {
  std::vector<u8> out(bits::zerobyte_bound(d.size()));
  out.resize(enc(d.data(), d.size(), out.data()));
  return out;
}

/// Outcome of one decode: bytes consumed and output, or the error message.
struct Decoded {
  std::string error;
  std::size_t used = 0;
  std::vector<u8> out;
  bool operator==(const Decoded&) const = default;
};

Decoded decode_with(std::size_t (*dec)(const u8*, std::size_t, u8*, std::size_t),
                    const std::vector<u8>& in, std::size_t n) {
  Decoded r;
  r.out.assign(n, 0xAB);
  try {
    r.used = dec(in.data(), in.size(), r.out.data(), n);
  } catch (const CompressionError& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace

// --- zero-byte elimination ---------------------------------------------------

TEST(KernelTiers, ZeroByteEncodeMatchesEveryLength) {
  REQUIRE_AVX512();
  data::Rng rng(71);
  for (std::size_t n = 0; n <= 1100; ++n)
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<u8> d = pattern(n, kind, rng);
      const std::vector<u8> s = encode_with(bits::scalar::zerobyte_encode, d);
      ASSERT_EQ(encode_with(bits::avx512::zerobyte_encode, d), s) << "n=" << n << " kind=" << kind;
      // Each tier decodes the other's stream.
      const Decoded back = decode_with(bits::avx512::zerobyte_decode, s, n);
      ASSERT_EQ(back.error, "") << "n=" << n;
      ASSERT_EQ(back.used, s.size());
      ASSERT_EQ(back.out, d) << "n=" << n << " kind=" << kind;
    }
}

TEST(KernelTiers, ZeroByteChunkSizes) {
  REQUIRE_AVX512();
  data::Rng rng(72);
  for (std::size_t n : {4096u, 8192u, 16384u, 16385u, 70000u})
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<u8> d = pattern(n, kind, rng);
      const std::vector<u8> s = encode_with(bits::scalar::zerobyte_encode, d);
      ASSERT_EQ(encode_with(bits::avx512::zerobyte_encode, d), s) << "n=" << n;
      ASSERT_EQ(decode_with(bits::avx512::zerobyte_decode, s, n),
                decode_with(bits::scalar::zerobyte_decode, s, n));
    }
}

TEST(KernelTiers, ZeroByteDecodeTruncatedAtEveryByte) {
  REQUIRE_AVX512();
  data::Rng rng(73);
  for (std::size_t n : {1u, 63u, 64u, 65u, 500u, 1027u}) {
    const std::vector<u8> d = pattern(n, 4, rng);
    const std::vector<u8> s = encode_with(bits::scalar::zerobyte_encode, d);
    for (std::size_t cut = 0; cut <= s.size(); ++cut) {
      const std::vector<u8> t(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(cut));
      const Decoded a = decode_with(bits::scalar::zerobyte_decode, t, n);
      const Decoded b = decode_with(bits::avx512::zerobyte_decode, t, n);
      ASSERT_EQ(a, b) << "n=" << n << " cut=" << cut;
      ASSERT_EQ(a.error.empty(), cut == s.size()) << "n=" << n << " cut=" << cut;
    }
  }
}

TEST(KernelTiers, ZeroByteDecodeHostileInput) {
  REQUIRE_AVX512();
  data::Rng rng(74);
  // Random streams: stray bitmap bits beyond n, survivor counts that
  // overrun the input, and trailing garbage.
  for (int t = 0; t < 3000; ++t) {
    const std::size_t n = rng.next_u64() % 1100;
    std::vector<u8> in(rng.next_u64() % (n + 64));
    for (u8& b : in) b = static_cast<u8>(rng.next_u64() >> (rng.next_u64() % 2 ? 0 : 60));
    ASSERT_EQ(decode_with(bits::scalar::zerobyte_decode, in, n),
              decode_with(bits::avx512::zerobyte_decode, in, n))
        << "trial " << t << " n=" << n;
  }
  // Valid streams with every top-bitmap bit flipped on.
  for (std::size_t n : {9u, 100u, 517u}) {
    std::vector<u8> s = encode_with(bits::scalar::zerobyte_encode, pattern(n, 2, rng));
    s[0] = 0xFF;
    s.resize(s.size() + 64, 0x5A);
    ASSERT_EQ(decode_with(bits::scalar::zerobyte_decode, s, n),
              decode_with(bits::avx512::zerobyte_decode, s, n));
  }
}

// --- bit transposes ----------------------------------------------------------

TEST(KernelTiers, BitShuffleMatches32) {
  REQUIRE_AVX512();
  data::Rng rng(75);
  for (std::size_t tiles : {1u, 2u, 128u}) {
    std::vector<u32> a(tiles * 32);
    for (u32& w : a) w = static_cast<u32>(rng.next_u64());
    std::vector<u32> b = a;
    bits::scalar::bitshuffle(a.data(), a.size());
    bits::avx512::bitshuffle(b.data(), b.size());
    ASSERT_EQ(a, b);
  }
  // Single set bits land where the scalar transpose puts them.
  for (int bit = 0; bit < 32 * 32; ++bit) {
    std::vector<u32> a(32, 0), b(32, 0);
    a[bit / 32] = b[bit / 32] = 1u << (bit % 32);
    bits::scalar::bitshuffle(a.data(), 32);
    bits::avx512::bitshuffle(b.data(), 32);
    ASSERT_EQ(a, b) << bit;
  }
}

TEST(KernelTiers, BitShuffleMatches64) {
  REQUIRE_AVX512();
  data::Rng rng(76);
  for (std::size_t tiles : {1u, 2u, 32u}) {
    std::vector<u64> a(tiles * 64);
    for (u64& w : a) w = rng.next_u64();
    std::vector<u64> b = a;
    bits::scalar::bitshuffle(a.data(), a.size());
    bits::avx512::bitshuffle(b.data(), b.size());
    ASSERT_EQ(a, b);
  }
  for (int bit = 0; bit < 64 * 64; ++bit) {
    std::vector<u64> a(64, 0), b(64, 0);
    a[bit / 64] = b[bit / 64] = 1ull << (bit % 64);
    bits::scalar::bitshuffle(a.data(), 64);
    bits::avx512::bitshuffle(b.data(), 64);
    ASSERT_EQ(a, b) << bit;
  }
}

// --- f32 ABS/NOA quantizer -----------------------------------------------------

namespace {

/// Quantizer decision boundaries at `eps`: bin edges one ulp either side,
/// |bin| at max_bin +- 1, denormals, signed zeros, infinities, NaN payloads.
std::vector<float> adversarial(double eps) {
  using FT = fpmath::FloatTraits<float>;
  constexpr float inf = std::numeric_limits<float>::infinity();
  const double max_bin = static_cast<double>(pfpl::AbsQuantizer<float>::max_bin);
  std::vector<float> v;
  for (double b : {0.0, 1.0, 2.0, 5.0, 1000.0, max_bin / 3, max_bin - 1, max_bin, max_bin + 1})
    for (double x : {(b + 0.5) * 2 * eps, (b - 0.5) * 2 * eps, b * 2 * eps})
      for (float s : {static_cast<float>(x), -static_cast<float>(x)})
        for (float y : {s, std::nextafter(s, inf), std::nextafter(s, -inf)}) v.push_back(y);
  for (float x : {std::numeric_limits<float>::denorm_min(), 7e-42f, FT::min_normal,
                  std::numeric_limits<float>::max(), 0.0f, inf})
    for (float y : {x, -x}) v.push_back(y);
  for (u32 payload : {1u, 0x400000u, 0x12345u, 0x7FFFFFu})
    for (u32 sign : {0u, FT::sign_mask})
      v.push_back(fpmath::from_bits<float>(FT::exponent_mask | payload | sign));
  return v;
}

void expect_quantizer_tiers_match(double eps, const std::vector<float>& v) {
  const pfpl::AbsQuantizer<float> q(eps);
  std::vector<u32> s(v.size()), a(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) s[i] = q.encode(v[i]);
  pfpl::avx512::abs_encode(q, v.data(), a.data(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(a[i], s[i]) << "eps=" << eps << " v=" << v[i] << " bits=0x" << std::hex
                          << fpmath::to_bits(v[i]);
  std::vector<float> sd(v.size()), ad(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) sd[i] = q.decode(s[i]);
  pfpl::avx512::abs_decode(q, s.data(), ad.data(), v.size());
  ASSERT_EQ(std::memcmp(sd.data(), ad.data(), sd.size() * sizeof(float)), 0) << "eps=" << eps;
}

}  // namespace

TEST(KernelTiers, QuantizerAdversarialField) {
  REQUIRE_AVX512();
  const double mn = static_cast<double>(fpmath::FloatTraits<float>::min_normal);
  for (double eps : {1e-2, 1e-3, 1e-6, 0.5, 1.0, 1e30, mn, std::nextafter(mn, 1.0)})
    expect_quantizer_tiers_match(eps, adversarial(eps));
}

TEST(KernelTiers, QuantizerRandomBitPatterns) {
  REQUIRE_AVX512();
  data::Rng rng(77);
  std::vector<float> v(100003);  // not a multiple of the vector width
  for (float& x : v) x = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()));
  for (double eps : {1e-38, 1e-20, 1e-3, 1.0, 1e10, 1e37}) expect_quantizer_tiers_match(eps, v);
}

TEST(KernelTiers, QuantizerDecodesEveryWordKind) {
  REQUIRE_AVX512();
  data::Rng rng(78);
  // Bin words (including the largest), and raw patterns just above them.
  std::vector<u32> w;
  for (u32 x = 0; x < 5000; ++x) w.push_back(x);
  for (u32 x = 0; x < 5000; ++x) w.push_back((1u << 23) - 1 - x);
  for (int i = 0; i < 50000; ++i) w.push_back(static_cast<u32>(rng.next_u64()));
  for (double eps : {1e-3, 1e30, 1e300}) {
    const pfpl::AbsQuantizer<float> q(eps);
    std::vector<float> s(w.size()), a(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) s[i] = q.decode(w[i]);
    pfpl::avx512::abs_decode(q, w.data(), a.data(), w.size());
    ASSERT_EQ(std::memcmp(s.data(), a.data(), s.size() * sizeof(float)), 0) << "eps=" << eps;
  }
}

TEST(KernelTiers, BlockCallsUseTheScalarWordsOnEveryTier) {
  // encode_block/decode_block run whichever tier is active; they must agree
  // with per-value encode/decode — also for the degenerate and f64 cases
  // that stay scalar on every tier.
  data::Rng rng(79);
  std::vector<float> f(4099);
  for (float& x : f)
    x = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64() >> (rng.next_u64() % 9)));
  for (double eps : {0.0, 1e-3}) {
    const pfpl::AbsQuantizer<float> q(eps);
    std::vector<u32> a(f.size());
    q.encode_block(f.data(), a.data(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) ASSERT_EQ(a[i], q.encode(f[i])) << i;
  }
  std::vector<double> d(2051);
  for (double& x : d) x = fpmath::from_bits<double>(rng.next_u64() >> (rng.next_u64() % 12));
  const pfpl::AbsQuantizer<double> qd(1e-6);
  std::vector<u64> wd(d.size());
  qd.encode_block(d.data(), wd.data(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) ASSERT_EQ(wd[i], qd.encode(d[i])) << i;
}

TEST(KernelTiers, TierNameIsReported) {
  const std::string name = bits::tier_name(bits::simd_tier());
  EXPECT_TRUE(name == "scalar" || name == "avx512") << name;
}

// --- CRC-32 ------------------------------------------------------------------

TEST(KernelTiers, Crc32KnownAnswers) {
  // The dispatching entry point (the clmul fold on an AVX-512 host, for
  // inputs of 64 bytes and more) and the scalar tier against zlib's values.
  std::vector<u8> zeros(64, 0), ramp(4096);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<u8>(i);
  for (auto crc : {&bits::crc32, &bits::scalar::crc32}) {
    EXPECT_EQ(crc("123456789", 9, 0), 0xCBF43926u);
    EXPECT_EQ(crc(nullptr, 0, 0), 0u);
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x758D6336u);
    EXPECT_EQ(crc(ramp.data(), ramp.size(), 0), 0xA2912082u);
  }
}

TEST(KernelTiers, Crc32ClmulMatchesTableEveryLengthAndAlignment) {
  REQUIRE_AVX512();
  data::Rng rng(80);
  std::vector<u8> src(4096 + 16);
  for (u8& b : src) b = static_cast<u8>(rng.next_u64());
  for (std::size_t align = 0; align < 16; ++align) {
    u32 ref = 0;  // scalar CRC of src[align, align + n), extended one byte per step
    for (std::size_t n = 0; n <= 4096; ++n) {
      if (n > 0) ref = bits::scalar::crc32(&src[align + n - 1], 1, ref);
      // An exact-size copy, so a sanitizer sees any read past the end.
      std::vector<u8> buf(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(align + n));
      ASSERT_EQ(bits::avx512::crc32(buf.data() + align, n, 0), ref)
          << "n=" << n << " align=" << align;
    }
  }
}

TEST(KernelTiers, Crc32IncrementalSplitAtEveryOffset) {
  data::Rng rng(81);
  std::vector<u8> b(300);
  for (u8& x : b) x = static_cast<u8>(rng.next_u64());
  const u32 whole = bits::scalar::crc32(b.data(), b.size());
  std::vector<u32 (*)(const void*, std::size_t, u32)> tiers = {&bits::crc32,
                                                               &bits::scalar::crc32};
  if (have_avx512()) tiers.push_back(&bits::avx512::crc32);
  for (auto crc : tiers) {
    ASSERT_EQ(crc(b.data(), b.size(), 0), whole);
    for (std::size_t k = 0; k <= b.size(); ++k)
      ASSERT_EQ(crc(b.data() + k, b.size() - k, crc(b.data(), k, 0)), whole) << "split " << k;
  }
}

TEST(KernelTiers, Crc32LargeRandomBuffer) {
  REQUIRE_AVX512();
  data::Rng rng(82);
  std::vector<u8> b(std::size_t{64} << 20);
  for (std::size_t i = 0; i < b.size(); i += 8) {
    const u64 r = rng.next_u64();
    std::memcpy(&b[i], &r, 8);
  }
  const u32 ref = bits::scalar::crc32(b.data(), b.size());
  EXPECT_EQ(bits::avx512::crc32(b.data(), b.size()), ref);
  EXPECT_EQ(bits::crc32(b.data(), b.size()), ref);
}
