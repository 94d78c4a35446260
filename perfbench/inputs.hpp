// Seeded input generation. The same seed gives the same bytes; the PFPL
// code under test only ever sees the generated values.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "data/synthetic.hpp"

namespace pb {

using repro::u64;

/// splitmix64 of (seed, salt): independent sub-seeds from one run seed.
u64 mix(u64 seed, u64 salt);

/// codec_serial: `files` files of about `values` scalars from each of the
/// ten Table II suites (seven f32, three f64).
std::vector<repro::data::SyntheticFile> codec_serial_inputs(u64 seed, std::size_t values,
                                                            int files);

/// `count` f32 arrays of exactly `values` scalars each, cycling through the
/// seven single-precision suites (served payloads, ingest files and the
/// codec_omp field).
std::vector<std::vector<float>> f32_arrays(u64 seed, std::size_t count, std::size_t values);

}  // namespace pb
