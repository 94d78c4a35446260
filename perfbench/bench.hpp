// perfbench — shared declarations of the PFPL benchmark program.
//
// The program runs one workload per process (so peak RSS is per workload),
// checks every operation it times, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of stdout. See
// perfbench/README.md for the workloads, the metrics and how to run them.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pb {

using repro::Bytes;
using repro::u64;
using repro::u8;

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans ("" = nowhere)
  std::string tmp_dir;    ///< temporary directory for on-disk inputs and stores
  std::string git_sha = "none";
  std::string source_digest = "none";
};

/// Operation accounting: every timed operation is attempted once and either
/// passes every check or counts as failed. The first few reasons are kept
/// for the report.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  /// Record one operation; `why` empty = it passed.
  void record(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void merge(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors)
      if (errors.size() < 5) errors.push_back(e);
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): operation accounting, the
/// manifest's metrics of this run (end-to-end or per-layer, by
/// Config::trace; every workload reports the same names), and details only
/// this workload has, which are printed but are not part of the result line.
struct Report {
  Outcome ops;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

Report run_codec_serial(const Config& cfg);
Report run_codec_omp(const Config& cfg);
Report run_served(const Config& cfg);
Report run_ingest(const Config& cfg);

/// "" when `got` equals `reference` byte for byte, else the reason.
std::string check_bytes(const char* what, const std::vector<u8>& got,
                        const std::vector<u8>& reference);

/// "" when every value of `recon` (raw scalar bytes of `orig`'s dtype) is
/// within (eb, eps) of `orig` by metrics::count_violations, else the reason.
std::string check_bound(const repro::Field& orig, const std::vector<u8>& recon,
                        repro::EbType eb, double eps);

/// Number of set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Error bound of every workload (the paper's 1e-3).
inline constexpr double kEps = 1e-3;

/// Run `setup` kSetups times, timing each, and keep the last state. The
/// previous state is destroyed outside the timed region. The times are
/// printed on stderr.
template <typename State, typename F>
void timed_setups(std::optional<State>& state, std::vector<double>& seconds, F&& setup) {
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const auto t0 = std::chrono::steady_clock::now();
    state.emplace(setup());
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  std::fprintf(stderr, "set-ups (s):");
  for (double s : seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
}

/// Call `pass` until `seconds` have elapsed and at least `min_passes` ran;
/// `pass` returns false to stop early.
template <typename F>
void run_for(double seconds, int min_passes, F&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const double el =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (i >= min_passes && el >= seconds) return;
    if (!pass()) return;
  }
}

/// Online CPUs; thread counts are derived from it so busy threads stay
/// within the machine.
unsigned cpu_count();

/// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

/// `s` as the inside of a JSON string literal (quotes and backslashes
/// escaped, control characters dropped).
std::string json_escape(const std::string& s);

/// Provenance block (host, toolchain, source, seed) as one JSON object.
std::string provenance_json(const Config& cfg);

class Tracer;
/// Write the traced run's spans to Config::trace_out (if set), with the
/// provenance block; a write failure is reported on stderr.
void write_trace(const Config& cfg, const Tracer& tr);

}  // namespace pb
