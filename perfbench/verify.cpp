// Per-operation checks shared by every workload.
#include <cstring>
#include <span>

#include "bench.hpp"
#include "metrics/error_stats.hpp"

namespace pb {

std::string check_bytes(const char* what, const std::vector<u8>& got,
                        const std::vector<u8>& reference) {
  if (got.size() != reference.size())
    return std::string(what) + ": " + std::to_string(got.size()) + " bytes, Serial reference " +
           std::to_string(reference.size());
  if (!got.empty() && std::memcmp(got.data(), reference.data(), got.size()) != 0)
    return std::string(what) + ": bytes differ from the Serial reference";
  return "";
}

std::string check_bound(const repro::Field& orig, const std::vector<u8>& recon,
                        repro::EbType eb, double eps) {
  if (recon.size() != orig.byte_size())
    return "decompressed " + std::to_string(recon.size()) + " bytes, expected " +
           std::to_string(orig.byte_size());
  const std::size_t n = orig.count();
  std::size_t bad;
  if (orig.dtype == repro::DType::F32)
    bad = repro::metrics::count_violations(
        orig.as<float>(), std::span<const float>(reinterpret_cast<const float*>(recon.data()), n),
        eps, eb);
  else
    bad = repro::metrics::count_violations(
        orig.as<double>(),
        std::span<const double>(reinterpret_cast<const double*>(recon.data()), n), eps, eb);
  return bad ? std::to_string(bad) + " values outside the " + repro::to_string(eb) + " bound"
             : "";
}

}  // namespace pb
