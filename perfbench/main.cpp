// perfbench — runs one workload and prints its metrics.
//
//   perfbench --workload <codec_serial|codec_omp|served|ingest> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--tmp-dir <dir>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 = a result was printed; 2 = bad arguments;
// 1 = the workload could not run.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <codec_serial|codec_omp|served|"
               "ingest> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--tmp-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--trace-out") {
        cfg.trace_out = v;
      } else if (a == "--tmp-dir") {
        cfg.tmp_dir = v;
      } else if (a == "--git-sha") {
        cfg.git_sha = v;
      } else if (a == "--source-digest") {
        cfg.source_digest = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  pb::Report (*run)(const pb::Config&) = nullptr;
  if (cfg.workload == "codec_serial") run = pb::run_codec_serial;
  if (cfg.workload == "codec_omp") run = pb::run_codec_omp;
  if (cfg.workload == "served") run = pb::run_served;
  if (cfg.workload == "ingest") run = pb::run_ingest;
  if (!run) return usage(("unknown workload " + cfg.workload).c_str());
  if (cfg.tmp_dir.empty() && (cfg.workload == "ingest"))
    return usage("the ingest workload needs --tmp-dir");

  std::printf("provenance %s\n", pb::provenance_json(cfg).c_str());
  std::fflush(stdout);
  pb::Report rep;
  try {
    rep = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  bool correct = rep.ops.failed == 0 && rep.ops.attempted > 0;
  for (const std::string& e : rep.ops.errors)
    std::fprintf(stderr, "perfbench: failed operation: %s\n", e.c_str());
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  std::string metrics;
  for (const pb::Metric& m : rep.metrics) {
    std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      correct = false;
      v = 0;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += '"';
    metrics += pb::json_escape(m.name);
    metrics += "\": {\"value\": ";
    metrics += num;
    metrics += ", \"unit\": \"";
    metrics += pb::json_escape(m.unit);
    metrics += "\"}";
  }
  if (!rep.details.empty()) std::printf("details of this workload (not in the result line):\n");
  for (const pb::Metric& m : rep.details)
    std::printf("  %-30s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(rep.ops.attempted),
              static_cast<unsigned long long>(rep.ops.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.ops.attempted),
              static_cast<unsigned long long>(rep.ops.failed), metrics.c_str());
  return 0;
}
