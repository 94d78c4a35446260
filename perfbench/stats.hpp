// Order statistics for the benchmark's timings.
#pragma once

#include <cstddef>
#include <vector>

namespace pb {

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// Arithmetic mean; 0 if empty.
double mean(const std::vector<double>& v);

/// Nearest-rank percentile `p` in (0, 100] of `v`; 0 if empty.
double percentile(std::vector<double> v, double p);

/// A run's throughput from its per-pass throughputs: the 90th percentile.
/// The host's other tenants only ever slow a pass down, and on the reference
/// host single passes swing by +-15% within seconds; a high percentile of
/// the passes tracks the code's own speed, where the median tracks the
/// neighbours (see README.md, Steadiness).
double pass_rate(const std::vector<double>& per_pass);

/// A tail percentile chosen from the sample size.
struct Tail {
  double p = 0;      ///< the percentile reported (0 = none is supported)
  double value = 0;  ///< its value
  std::size_t n = 0; ///< sample count
};

/// The highest percentile among 99.9, 99, 95, 90 and 50 that has at least
/// ten samples beyond it (n * (1 - p/100) >= 10), capped at `max_p`, with
/// its value and the sample count.
Tail highest_supported(const std::vector<double>& v, double max_p = 99.9);

}  // namespace pb
