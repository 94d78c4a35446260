// Tests for the synthetic SDRBench-substitute generators: determinism,
// Table II fidelity (precision, counts, dimensionality), and the smoothness
// regimes the compression results depend on.
#include <gtest/gtest.h>

#include <cmath>

#include "data/rng.hpp"
#include "data/synthetic.hpp"

using namespace repro;
using namespace repro::data;

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng r(7);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = r.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Suites, TableTwoInventory) {
  auto specs = paper_suites();
  ASSERT_EQ(specs.size(), 10u);  // 10 suites
  int f32 = 0, f64 = 0, files = 0;
  for (const auto& s : specs) {
    (s.dtype == DType::F32 ? f32 : f64)++;
    files += s.paper_files;
  }
  EXPECT_EQ(f32, 7);  // "7 single- and 3 double-precision suites"
  EXPECT_EQ(f64, 3);
  EXPECT_EQ(files, 89);  // "a total of 89 files"
}

TEST(Suites, GenerationIsDeterministic) {
  auto a = generate(paper_suites()[0], 1 << 12, 2);
  auto b = generate(paper_suites()[0], 1 << 12, 2);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t i = 0; i < a.files.size(); ++i) EXPECT_EQ(a.files[i].f32, b.files[i].f32);
}

TEST(Suites, DifferentFilesDiffer) {
  auto s = generate(paper_suites()[0], 1 << 12, 3);
  ASSERT_GE(s.files.size(), 2u);
  EXPECT_NE(s.files[0].f32, s.files[1].f32);
}

TEST(Suites, DtypeAndSizesMatchSpec) {
  for (const auto& spec : paper_suites()) {
    auto s = generate(spec, 1 << 12, 1);
    ASSERT_EQ(s.files.size(), 1u);
    const auto& f = s.files[0];
    EXPECT_EQ(f.dtype, spec.dtype) << spec.name;
    if (spec.dtype == DType::F32) {
      EXPECT_FALSE(f.f32.empty());
      EXPECT_TRUE(f.f64.empty());
      EXPECT_EQ(f.f32.size(), f.field().count());
    } else {
      EXPECT_FALSE(f.f64.empty());
      EXPECT_EQ(f.f64.size(), f.field().count());
    }
    // Approximate the requested size (loose: minimum-axis clamping can
    // inflate strongly anisotropic suites at tiny targets).
    EXPECT_GT(f.field().count(), (1u << 12) / 4) << spec.name;
    EXPECT_LT(f.field().count(), (1u << 12) * 8) << spec.name;
  }
}

TEST(Suites, NoNonFiniteValues) {
  // Paper Section III-D: the evaluation inputs "contain no denormals, NaNs,
  // or infinities"; the generators must honour that.
  for (auto& suite : generate_all(1 << 12, 2)) {
    for (auto& f : suite.files) {
      if (f.dtype == DType::F32) {
        for (float v : f.f32) ASSERT_TRUE(std::isfinite(v)) << suite.spec.name;
      } else {
        for (double v : f.f64) ASSERT_TRUE(std::isfinite(v)) << suite.spec.name;
      }
    }
  }
}

TEST(Suites, SmoothnessRegimesDiffer) {
  // Climate fields must be much smoother (smaller mean |delta| relative to
  // range) than particle velocity data — that ordering drives the per-suite
  // compression-ratio spread in the figures.
  auto smoothness = [](const std::vector<float>& v) {
    double range_lo = v[0], range_hi = v[0], dsum = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      dsum += std::abs(static_cast<double>(v[i]) - v[i - 1]);
      range_lo = std::min<double>(range_lo, v[i]);
      range_hi = std::max<double>(range_hi, v[i]);
    }
    double range = range_hi - range_lo;
    return range > 0 ? (dsum / (v.size() - 1)) / range : 0.0;
  };
  auto specs = paper_suites();
  auto cesm = generate(specs[0], 1 << 14, 1);     // climate
  auto hacc = generate(specs[3], 1 << 14, 2);     // cosmology particles
  double s_cesm = smoothness(cesm.files[0].f32);
  double s_hacc_vel = smoothness(hacc.files[1].f32);  // odd index = velocities
  EXPECT_LT(s_cesm, s_hacc_vel / 5) << s_cesm << " vs " << s_hacc_vel;
}

TEST(Suites, Is3dFlagsMatchKinds) {
  for (const auto& spec : paper_suites()) {
    auto s = generate(spec, 1 << 12, 1);
    bool is3d = s.files[0].field().is_3d();
    if (spec.kind == "hacc" || spec.kind == "nwchem" || spec.kind == "brown") {
      EXPECT_FALSE(is3d) << spec.name;
    }
    if (spec.kind == "cesm" || spec.kind == "nyx" || spec.kind == "miranda") {
      EXPECT_TRUE(is3d) << spec.name;
    }
  }
}

TEST(Suites, TotalBytesAccountsAllFiles) {
  auto s = generate(paper_suites()[0], 1 << 12, 3);
  std::size_t sum = 0;
  for (const auto& f : s.files) sum += f.byte_size();
  EXPECT_EQ(s.total_bytes(), sum);
}
