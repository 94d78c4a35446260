// Property-based tests: algebraic invariants of the PFPL machinery that must
// hold for *all* inputs, exercised with broad parameterized sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pfpl.hpp"
#include "core/quantizers.hpp"
#include "data/rng.hpp"
#include "fpmath/det_math.hpp"
#include "metrics/error_stats.hpp"

using namespace repro;
using pfpl::AbsQuantizer;
using pfpl::Executor;
using pfpl::Params;
using pfpl::RelQuantizer;

namespace {

std::vector<float> signal(std::size_t n, double step, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += step * rng.gaussian();
    x = static_cast<float>(acc);
  }
  return v;
}

}  // namespace

// --- determinism ---------------------------------------------------------------

TEST(Properties, CompressionIsDeterministic) {
  auto v = signal(30000, 0.01, 1);
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
    Bytes a = pfpl::compress(Field(v.data(), v.size()), {1e-3, eb});
    Bytes b = pfpl::compress(Field(v.data(), v.size()), {1e-3, eb});
    EXPECT_EQ(a, b) << to_string(eb);
  }
}

TEST(Properties, DecompressionIsIdempotent) {
  auto v = signal(30000, 0.01, 2);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  EXPECT_EQ(pfpl::decompress(c), pfpl::decompress(c));
}

TEST(Properties, RecompressionOfDecompressedIsLossless) {
  // Compressing already-quantized data at the same bound must reproduce it
  // exactly (fixed point): every value sits at a bin centre (or was stored
  // losslessly), so re-quantization is exact.
  auto v = signal(30000, 0.01, 3);
  for (EbType eb : {EbType::ABS, EbType::REL}) {
    Bytes c1 = pfpl::compress(Field(v.data(), v.size()), {1e-3, eb});
    auto once = pfpl::decompress_as<float>(c1);
    Bytes c2 = pfpl::compress(Field(once.data(), once.size()), {1e-3, eb});
    auto twice = pfpl::decompress_as<float>(c2);
    EXPECT_EQ(once, twice) << to_string(eb);
  }
}

// --- quantizer algebra ----------------------------------------------------------

TEST(Properties, AbsBinsMonotoneInValue) {
  AbsQuantizer<float> q(1e-2);
  data::Rng rng(4);
  float prev_v = -1e6f;
  i64 prev_bin = std::numeric_limits<i64>::min();
  std::vector<float> vals;
  for (int i = 0; i < 10000; ++i) vals.push_back(static_cast<float>(rng.uniform(-1e4, 1e4)));
  std::sort(vals.begin(), vals.end());
  for (float v : vals) {
    u32 w = q.encode(v);
    if (!AbsQuantizer<float>::is_bin(w)) continue;
    i64 mag = static_cast<i64>(w >> 1);
    i64 bin = (w & 1) ? -mag : mag;
    EXPECT_GE(bin, prev_bin) << "v=" << v << " prev=" << prev_v;
    prev_bin = bin;
    prev_v = v;
  }
}

TEST(Properties, RelMagnitudeMonotone) {
  RelQuantizer<float> q(1e-2);
  float prev = 0;
  for (float v = 1e-20f; v < 1e20f; v *= 1.37f) {
    u32 w = q.encode(v);
    float r = q.decode(w);
    EXPECT_GE(r, prev) << v;  // reconstruction magnitudes non-decreasing
    prev = r;
  }
}

TEST(Properties, QuantizerSymmetricUnderNegation) {
  // ABS: decode(encode(-v)) == -decode(encode(v)) for all binned values.
  AbsQuantizer<float> q(1e-3);
  data::Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    float v = static_cast<float>(rng.gaussian());
    float rp = q.decode(q.encode(v));
    float rn = q.decode(q.encode(-v));
    EXPECT_EQ(rp, -rn) << v;  // numeric equality (+0 == -0 by design)
  }
}

TEST(Properties, CoarserBoundNeverCompressesWorse) {
  // On smooth data the compressed size must be monotone in the bound.
  auto v = signal(1 << 18, 0.01, 6);
  std::size_t prev = 0;
  for (double eps : {1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    Bytes c = pfpl::compress(Field(v.data(), v.size()), {eps, EbType::ABS});
    if (prev) {
      EXPECT_LE(c.size(), prev) << eps;
    }
    prev = c.size();
  }
}

TEST(Properties, StreamSizeBoundedByRawPlusOverhead) {
  // Raw-chunk fallback caps expansion at raw size + table + header, even on
  // adversarial (incompressible) input.
  data::Rng rng(7);
  for (EbType eb : {EbType::ABS, EbType::REL}) {
    std::vector<float> v(1 << 16);
    for (auto& x : v) {
      float f = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()));
      x = std::isfinite(f) ? f : 0.0f;
    }
    Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-12, eb});
    std::size_t raw = v.size() * 4;
    std::size_t overhead = sizeof(pfpl::Header) + ((raw + 16383) / 16384) * 4;
    EXPECT_LE(c.size(), raw + overhead + raw / 100) << to_string(eb);
  }
}

// --- cross-input independence -----------------------------------------------------

TEST(Properties, ChunksAreIndependent) {
  // Changing one value must only change its own chunk's bytes (plus that
  // chunk's size-table entry) — the basis of the parallel design.
  auto v = signal(16384, 0.01, 8);  // 4 chunks
  Bytes a = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  auto v2 = v;
  v2[9000] += 0.5f;  // chunk 2 (values 8192..12287)
  Bytes b = pfpl::compress(Field(v2.data(), v2.size()), {1e-3, EbType::ABS});
  pfpl::Header h = pfpl::peek_header(a);
  ASSERT_EQ(h.chunk_count, 4u);
  std::vector<u32> sa(4), sb(4);
  std::memcpy(sa.data(), a.data() + sizeof(pfpl::Header), 16);
  std::memcpy(sb.data(), b.data() + sizeof(pfpl::Header), 16);
  EXPECT_EQ(sa[0], sb[0]);
  EXPECT_EQ(sa[1], sb[1]);
  EXPECT_EQ(sa[3], sb[3]);
  // Chunks 0 and 1 payload bytes identical.
  std::size_t payload = sizeof(pfpl::Header) + 16;
  std::size_t len01 = (sa[0] & 0x7FFFFFFF) + (sa[1] & 0x7FFFFFFF);
  EXPECT_TRUE(std::equal(a.begin() + payload, a.begin() + payload + len01,
                         b.begin() + payload));
}

// --- parameterized wide sweep -------------------------------------------------------

struct SweepCase {
  double eps;
  EbType eb;
  double step;  // data roughness
};

class WideSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WideSweep, GuaranteeAndRoundtripAndIdentity) {
  auto [eps, eb, step] = GetParam();
  auto v = signal(20000, step, static_cast<u64>(eps * 1e9) ^ static_cast<u64>(step * 1e6));
  Bytes serial = pfpl::compress(Field(v.data(), v.size()), {eps, eb, Executor::Serial});
  Bytes gpu = pfpl::compress(Field(v.data(), v.size()), {eps, eb, Executor::GpuSim});
  EXPECT_EQ(serial, gpu);
  auto back = pfpl::decompress_as<float>(serial);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      eps, eb),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WideSweep,
    ::testing::Values(SweepCase{1e-1, EbType::ABS, 0.001}, SweepCase{1e-1, EbType::ABS, 1.0},
                      SweepCase{1e-3, EbType::ABS, 0.001}, SweepCase{1e-3, EbType::ABS, 1.0},
                      SweepCase{1e-5, EbType::ABS, 0.01}, SweepCase{1e-1, EbType::REL, 0.01},
                      SweepCase{1e-3, EbType::REL, 0.001}, SweepCase{1e-3, EbType::REL, 1.0},
                      SweepCase{1e-5, EbType::REL, 0.1}, SweepCase{1e-1, EbType::NOA, 0.01},
                      SweepCase{1e-3, EbType::NOA, 0.1}, SweepCase{1e-4, EbType::NOA, 1.0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const auto& p = info.param;
      std::string s = to_string(p.eb);
      s += "_eps" + std::to_string(static_cast<int>(-std::log10(p.eps)));
      s += "_step" + std::to_string(static_cast<int>(p.step * 1000));
      return s;
    });
