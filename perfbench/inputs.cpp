#include "inputs.hpp"

#include <algorithm>

namespace pb {

u64 mix(u64 seed, u64 salt) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<repro::data::SyntheticFile> codec_serial_inputs(u64 seed, std::size_t values,
                                                            int files) {
  std::vector<repro::data::SyntheticFile> out;
  const auto suites = repro::data::paper_suites();
  for (std::size_t i = 0; i < suites.size(); ++i) {
    repro::data::Suite s = repro::data::generate(suites[i], values, files, mix(seed, i));
    for (auto& f : s.files) out.push_back(std::move(f));
  }
  return out;
}

std::vector<std::vector<float>> f32_arrays(u64 seed, std::size_t count, std::size_t values) {
  std::vector<repro::data::SuiteSpec> f32;
  for (const repro::data::SuiteSpec& s : repro::data::paper_suites())
    if (s.dtype == repro::DType::F32) f32.push_back(s);
  std::vector<std::vector<float>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const repro::data::SuiteSpec& spec = f32[i % f32.size()];
    // The generators pick dims near the target; ask for a little more and
    // cut to the exact size.
    std::size_t target = values + values / 4;
    std::vector<float> v;
    while (v.size() < values) {
      v = std::move(repro::data::generate(spec, target, 1, mix(seed, 1000 + i)).files.front().f32);
      target *= 2;
    }
    v.resize(values);
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace pb
