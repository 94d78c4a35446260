// Golden digests of the PFPL stream format.
//
// Every executor and every kernel tier must produce the same bytes, and
// those bytes must not drift between versions of the code: a stream written
// today has to decode to the same values with tomorrow's decoder, and a
// faster kernel must be a pure speed change. The identity tests compare
// executors with each other, which cannot notice a change they all share
// (the quantizer, for one). This test pins the bytes themselves: it hashes
// the compressed stream and the decompressed values of fixed inputs and
// compares them with digests recorded from a known-good build.
//
// The inputs are the Table II suites (a few small files each, every suite
// in both precisions) and a hand-built adversarial field aimed at the
// quantizer's edge cases: values one ulp either side of a bin edge, bins at
// max_bin +- 1, denormals, signed zeros, infinities, NaN payloads, and
// bounds just either side of the smallest normal number.
//
// A digest mismatch means the stream format changed. If that is intended,
// bump the format version and record the new digests in the same change.
// The inputs are hashed as well: the suite generators call libm, and on a
// platform whose libm generates other values a case is skipped, not failed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/pfpl.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "fpmath/traits.hpp"

using namespace repro;
using pfpl::Executor;

namespace {

/// FNV-1a, 64 bit: small, fixed, and independent of the library's hashes.
struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void add(const void* p, std::size_t n) {
    const u8* b = static_cast<const u8*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  void add(const std::vector<u8>& v) {
    const u64 n = v.size();
    add(&n, sizeof n);
    add(v.data(), v.size());
  }
};

/// Digests of a list of cases: the input values apart from the bytes, so a
/// platform that generates other inputs is not mistaken for a format change.
struct Digests {
  Fnv in, out;
};

/// Folds the values into `d.in`, and compress(field) and decompress(stream)
/// into `d.out`. A rejected bound folds its error message, so the rejection
/// is pinned too. Every executor must produce the Serial stream.
template <typename T>
void fold_case(Digests& d, const std::vector<T>& v, EbType eb, double eps) {
  d.in.add(v.data(), v.size() * sizeof(T));
  Fnv& h = d.out;
  const Field f(v.data(), v.size());
  Bytes s;
  try {
    s = pfpl::compress(f, {eps, eb, Executor::Serial});
  } catch (const CompressionError& e) {
    const std::string msg = e.what();
    h.add(msg.data(), msg.size());
    return;
  }
  h.add(s);
  h.add(pfpl::decompress(s));
  EXPECT_EQ(pfpl::compress(f, {eps, eb, Executor::OpenMP}), s);
  EXPECT_EQ(pfpl::compress(f, {eps, eb, Executor::GpuSim}), s);
}

/// The Table II suites, small: two files per suite of about 12k values
/// (three f32 chunks and a partial tail), each suite in both precisions.
const std::vector<data::Suite>& suites() {
  static const std::vector<data::Suite> s = data::generate_all(12000, 2);
  return s;
}

template <typename T>
std::vector<T> as(const data::SyntheticFile& f) {
  std::vector<T> out;
  if (f.dtype == DType::F32)
    out.assign(f.f32.begin(), f.f32.end());
  else
    out.assign(f.f64.begin(), f.f64.end());
  return out;
}

template <typename T>
Digests suite_digest(EbType eb, double eps) {
  Digests d;
  for (const data::Suite& s : suites())
    for (const data::SyntheticFile& f : s.files) fold_case(d, as<T>(f), eb, eps);
  return d;
}

/// Values built to land on the quantizer's decision boundaries at `eps`.
template <typename T>
std::vector<T> adversarial_field(double eps) {
  using FT = fpmath::FloatTraits<T>;
  using Bits = typename FT::Bits;
  constexpr T inf = std::numeric_limits<T>::infinity();
  constexpr T maxv = std::numeric_limits<T>::max();
  constexpr T denorm_min = std::numeric_limits<T>::denorm_min();
  const double max_bin = static_cast<double>((i64{1} << (FT::mantissa_bits - 1)) - 1);
  std::vector<T> v;
  auto both_sides = [&](double x) {
    const T t = static_cast<T>(x);
    for (const T s : {t, -t}) {
      v.push_back(s);
      v.push_back(std::nextafter(s, inf));
      v.push_back(std::nextafter(s, -inf));
    }
  };
  // Bin edges (b + 1/2) * 2eps and bin centres b * 2eps, small and large b.
  for (double b : {0.0, 1.0, 2.0, 3.0, 7.0, 100.0, 12345.0, 1e6, max_bin / 2}) {
    both_sides((b + 0.5) * 2 * eps);
    both_sides(b * 2 * eps);
  }
  // |bin| at max_bin - 1, max_bin, max_bin + 1 and its edges.
  for (double b : {max_bin - 1, max_bin, max_bin + 1}) {
    both_sides(b * 2 * eps);
    both_sides((b + 0.5) * 2 * eps);
    both_sides((b - 0.5) * 2 * eps);
  }
  // Denormals, signed zeros, the normal boundary, the extremes.
  for (T x : {denorm_min, T(2) * denorm_min, T(12345) * denorm_min, FT::min_normal,
              std::nextafter(FT::min_normal, T(0)), std::nextafter(FT::min_normal, inf), maxv,
              std::nextafter(maxv, T(0)), T(0)}) {
    v.push_back(x);
    v.push_back(-x);
  }
  v.push_back(inf);
  v.push_back(-inf);
  // NaNs: quiet and signalling patterns, payloads, both signs.
  for (Bits payload : {Bits{1}, Bits{2}, Bits{0x5A5A}, Bits(FT::mantissa_mask >> 1),
                       FT::mantissa_mask}) {
    const Bits nan = FT::exponent_mask | payload;
    v.push_back(fpmath::from_bits<T>(nan));
    v.push_back(fpmath::from_bits<T>(static_cast<Bits>(nan | FT::sign_mask)));
  }
  // Random bit patterns, then a smooth ramp crossing many bins, so chunks
  // hold both raw words and runs of small bins.
  data::Rng rng(0x601DE4);
  for (int i = 0; i < 3000; ++i)
    v.push_back(fpmath::from_bits<T>(static_cast<Bits>(rng.next_u64())));
  for (int i = 0; i < 6000; ++i)
    v.push_back(static_cast<T>(std::sin(i * 0.01) * 50 * eps + (i % 7) * eps));
  return v;
}

template <typename T>
Digests adversarial_digest(EbType eb) {
  using FT = fpmath::FloatTraits<T>;
  const double mn = static_cast<double>(FT::min_normal);
  Digests d;
  for (double eps : {1e-2, 1e-4, 1.0, std::nextafter(mn, 0.0), mn, std::nextafter(mn, 1.0)}) {
    std::vector<T> v = adversarial_field<T>(eps < 1e-30 ? 1e-30 : eps);
    fold_case(d, v, eb, eps);
    // f64 NOA rejects the full field (its finite range overflows); fold a
    // copy without the huge values too, so NOA quantizes these edges.
    for (T& x : v)
      if (std::isfinite(x) && std::fabs(static_cast<double>(x)) > 1e300) x = T(0);
    fold_case(d, v, eb, eps);
  }
  return d;
}

struct Golden {
  const char* name;
  Digests (*digest)();
  u64 input;  ///< digest of the inputs the stream digest was recorded from
  u64 want;   ///< stream and decoded bytes
};

// The inputs: they depend on the generators and on libm, not on the codec.
constexpr u64 kSuitesF32 = 0xb9fd847674903ac7ull;
constexpr u64 kSuitesF64 = 0xb6f3b93f4b9e362dull;
constexpr u64 kAdversarialF32 = 0xadabd35f61f8b385ull;
constexpr u64 kAdversarialF64 = 0xe6ed13a9656bb86dull;

// Digests recorded from the reference build. Do not edit to make a failing
// run pass: a mismatch is a format change.
const Golden kGolden[] = {
    {"suites/f32/ABS/1e-2", [] { return suite_digest<float>(EbType::ABS, 1e-2); },
     kSuitesF32, 0x23c81afbe1a4aa48ull},
    {"suites/f32/ABS/1e-4", [] { return suite_digest<float>(EbType::ABS, 1e-4); },
     kSuitesF32, 0x259637ae15550761ull},
    {"suites/f32/REL/1e-2", [] { return suite_digest<float>(EbType::REL, 1e-2); },
     kSuitesF32, 0x1471b3480839997eull},
    {"suites/f32/REL/1e-4", [] { return suite_digest<float>(EbType::REL, 1e-4); },
     kSuitesF32, 0x5c04206a0d260636ull},
    {"suites/f32/NOA/1e-2", [] { return suite_digest<float>(EbType::NOA, 1e-2); },
     kSuitesF32, 0x2bbb81bd4eedf863ull},
    {"suites/f32/NOA/1e-4", [] { return suite_digest<float>(EbType::NOA, 1e-4); },
     kSuitesF32, 0xa4e91b8dc50628d1ull},
    {"suites/f64/ABS/1e-2", [] { return suite_digest<double>(EbType::ABS, 1e-2); },
     kSuitesF64, 0xb69ea5276c945b6dull},
    {"suites/f64/ABS/1e-4", [] { return suite_digest<double>(EbType::ABS, 1e-4); },
     kSuitesF64, 0x6112077002faa55bull},
    {"suites/f64/REL/1e-2", [] { return suite_digest<double>(EbType::REL, 1e-2); },
     kSuitesF64, 0xb95fc6295bde6846ull},
    {"suites/f64/REL/1e-4", [] { return suite_digest<double>(EbType::REL, 1e-4); },
     kSuitesF64, 0x7865ca529584ac97ull},
    {"suites/f64/NOA/1e-2", [] { return suite_digest<double>(EbType::NOA, 1e-2); },
     kSuitesF64, 0xeca71fea3155cee5ull},
    {"suites/f64/NOA/1e-4", [] { return suite_digest<double>(EbType::NOA, 1e-4); },
     kSuitesF64, 0xda5ada70bd4ca19dull},
    {"adversarial/f32/ABS", [] { return adversarial_digest<float>(EbType::ABS); },
     kAdversarialF32, 0x060b26307491c75dull},
    {"adversarial/f32/REL", [] { return adversarial_digest<float>(EbType::REL); },
     kAdversarialF32, 0x5018dd7581ca1df5ull},
    {"adversarial/f32/NOA", [] { return adversarial_digest<float>(EbType::NOA); },
     kAdversarialF32, 0xa5c5c2f17c6fcdb3ull},
    {"adversarial/f64/ABS", [] { return adversarial_digest<double>(EbType::ABS); },
     kAdversarialF64, 0x2e209fb4757ee4b9ull},
    {"adversarial/f64/REL", [] { return adversarial_digest<double>(EbType::REL); },
     kAdversarialF64, 0x8ff5a3b185b155a8ull},
    {"adversarial/f64/NOA", [] { return adversarial_digest<double>(EbType::NOA); },
     kAdversarialF64, 0xccc9713884bd529full},
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class FormatGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(FormatGolden, DigestMatchesReference) {
  const Golden& g = GetParam();
  const Digests d = g.digest();
  // The suites call libm (exp, sin, pow, tanh). A libm that rounds one of
  // them differently generates other inputs, whose bytes were never pinned.
  if (d.in.h != g.input)
    GTEST_SKIP() << g.name << ": inputs differ from the reference platform's (libm): 0x"
                 << std::hex << d.in.h;
  EXPECT_EQ(d.out.h, g.want) << g.name << ": stream or decoded bytes changed";
}

INSTANTIATE_TEST_SUITE_P(Streams, FormatGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& i) {
                           std::string n = i.param.name;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

}  // namespace
