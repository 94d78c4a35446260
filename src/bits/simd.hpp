// Kernel tiers: which instruction set runs the chunk kernels.
//
// Every chunk kernel (zero-byte elimination, bit transpose, the f32 ABS/NOA
// quantizer) and the CRC-32 (bits/crc32.hpp) has a portable scalar tier and
// an AVX-512 tier. The tier is
// picked once per process from cpuid — there is no flag, option or
// environment variable — and both tiers produce identical bytes, so the
// choice is invisible in every stream (tests/test_kernel_tiers.cpp checks
// this directly; tests/test_format_golden.cpp pins the bytes).
//
// The AVX-512 code is compiled per function with PFPL_TARGET_AVX512, not
// with global flags, so the rest of the build keeps its baseline ISA and
// the strict-IEEE options. It uses only IEEE add/sub/mul/convert, in the
// scalar code's order, and no FMA intrinsics (-ffp-contract=off does not
// stop those).
#pragma once

namespace repro::bits {

enum class Tier { Scalar, Avx512 };

/// The tier the dispatching kernels use: Avx512 when the CPU and OS support
/// AVX-512 F/BW/DQ/VL/VBMI/VBMI2 (plus BMI2, POPCNT and PCLMULQDQ), else
/// Scalar.
Tier simd_tier();

/// "scalar" or "avx512".
const char* tier_name(Tier t);

}  // namespace repro::bits

#if defined(__x86_64__)
/// Attribute for functions that run on the AVX-512 tier.
#define PFPL_TARGET_AVX512                                                            \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vbmi,avx512vbmi2," \
                        "bmi,bmi2,popcnt,pclmul")))
#endif
