// Parameterized conformance sweep over every baseline: each (compressor,
// dtype, shape, bound) combination it claims to support must round-trip to
// the right size and, where the Table III profile promises a guarantee, meet
// the bound under the external verifier. This is the wide safety net behind
// the per-baseline behavioural tests.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/registry.hpp"
#include "data/rng.hpp"
#include "metrics/error_stats.hpp"

using namespace repro;
using namespace repro::baselines;

namespace {

struct Case {
  std::string compressor;
  DType dtype;
  std::array<std::size_t, 3> dims;
  double eps;
  EbType eb;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string s = c.compressor + "_" + to_string(c.dtype) + "_" + to_string(c.eb);
  // Appended piece by piece: GCC 12 reports `"lit" + std::to_string(x)` as
  // an overlapping memcpy (-Wrestrict, GCC bug 105651).
  s.append("_e").append(std::to_string(static_cast<int>(-std::log10(c.eps))));
  s.append("_").append(std::to_string(c.dims[0]));
  s.append("x").append(std::to_string(c.dims[1]));
  s.append("x").append(std::to_string(c.dims[2]));
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  std::vector<std::array<std::size_t, 3>> shapes{
      {1, 1, 5000},   // 1D
      {1, 64, 80},    // 2D
      {12, 20, 24},   // 3D
      {5, 7, 11},     // odd 3D (partial blocks everywhere)
  };
  for (const auto& comp : all_compressors()) {
    Features f = comp->features();
    for (DType dt : {DType::F32, DType::F64}) {
      if (dt == DType::F32 && !f.f32) continue;
      if (dt == DType::F64 && !f.f64) continue;
      for (const auto& dims : shapes) {
        bool is3d = dims[0] > 1 && dims[1] > 1 && dims[2] > 1;
        if (f.requires_3d && !is3d) continue;
        for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
          if (!f.supports(eb)) continue;
          for (double eps : {1e-2, 1e-4})
            cases.push_back({comp->name(), dt, dims, eps, eb});
        }
      }
    }
  }
  return cases;
}

template <typename T>
std::vector<T> make_field(std::array<std::size_t, 3> dims, u64 seed) {
  data::Rng rng(seed);
  std::size_t n = dims[0] * dims[1] * dims[2];
  std::vector<T> v(n);
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims[0]; ++z)
    for (std::size_t y = 0; y < dims[1]; ++y)
      for (std::size_t x = 0; x < dims[2]; ++x)
        v[i++] = static_cast<T>(2.0 * std::sin(0.11 * z + 0.07 * y + 0.03 * x) +
                                0.01 * rng.gaussian() + 3.0);
  return v;
}

class BaselineSweep : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(BaselineSweep, RoundTripAndBound) {
  const Case& c = GetParam();
  CompressorPtr comp = find_compressor(c.compressor);
  Features f = comp->features();
  if (c.dtype == DType::F32) {
    auto v = make_field<float>(c.dims, 77);
    Bytes s = comp->compress(Field(v.data(), c.dims), c.eps, c.eb);
    auto back = comp->decompress_as<float>(s);
    ASSERT_EQ(back.size(), v.size());
    std::size_t bad = metrics::count_violations(std::span<const float>(v),
                                                std::span<const float>(back), c.eps, c.eb);
    if (f.guarantees(c.eb)) {
      EXPECT_EQ(bad, 0u);
    } else {
      // '○' profile: best-effort — still sane on this benign field.
      EXPECT_LT(bad, v.size() / 2);
    }
  } else {
    auto v = make_field<double>(c.dims, 78);
    Bytes s = comp->compress(Field(v.data(), c.dims), c.eps, c.eb);
    auto back = comp->decompress_as<double>(s);
    ASSERT_EQ(back.size(), v.size());
    std::size_t bad = metrics::count_violations(std::span<const double>(v),
                                                std::span<const double>(back), c.eps, c.eb);
    if (f.guarantees(c.eb)) {
      EXPECT_EQ(bad, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, BaselineSweep, ::testing::ValuesIn(make_cases()),
                         case_name);
