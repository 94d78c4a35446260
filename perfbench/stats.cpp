#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double pass_rate(const std::vector<double>& per_pass) { return percentile(per_pass, 90); }

Tail highest_supported(const std::vector<double>& v, double max_p) {
  Tail t;
  t.n = v.size();
  // Percentiles in tenths, so the "ten samples beyond" test is exact integer
  // arithmetic: n * (1000 - p10) / 1000 >= 10.
  for (int p10 : {999, 990, 950, 900, 500}) {
    if (p10 > static_cast<int>(std::lround(max_p * 10))) continue;
    if (t.n * static_cast<std::size_t>(1000 - p10) < 10u * 1000u) continue;
    t.p = p10 / 10.0;
    t.value = percentile(v, t.p);
    return t;
  }
  return t;
}

}  // namespace pb
