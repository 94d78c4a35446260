#include "bits/simd.hpp"

namespace repro::bits {
namespace {

Tier detect() {
#if defined(__x86_64__)
  // __builtin_cpu_supports also checks that the OS saves the zmm state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("avx512vbmi2") &&
      __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2") &&
      __builtin_cpu_supports("popcnt") && __builtin_cpu_supports("pclmul"))
    return Tier::Avx512;
#endif
  return Tier::Scalar;
}

}  // namespace

Tier simd_tier() {
  static const Tier t = detect();
  return t;
}

const char* tier_name(Tier t) { return t == Tier::Avx512 ? "avx512" : "scalar"; }

}  // namespace repro::bits
