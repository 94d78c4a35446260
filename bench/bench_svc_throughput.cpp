// Chunk fan-out throughput: aggregate GB/s over the synthetic suite mix vs.
// worker count.
//
// The workload is the checkpoint/dump shape the service targets (cuSZ+ /
// FZ-GPU motivation: coarse-grained batch throughput, not single-buffer
// latency): every file of every synthetic suite is one in-memory item, all
// items go through one IngestPipeline run per dtype (the pool fans each
// field's chunks out through pfpl's chunk loop), and the runs are timed end
// to end. Each configuration also re-verifies the determinism invariant:
// every stream must equal single-threaded pfpl::compress.
//
// Output columns: threads, wall ms, aggregate GB/s (input bytes / wall),
// speedup vs. 1 thread, chunks encoded, peak inter-stage queue depth.
// Scaling tops out at the machine's core count — on fewer cores than
// workers the extra threads just time-slice.
// Observability flags:
//   --trace FILE       write a Chrome trace of the run (enables obs)
//   --report FILE      write the obs RunReport JSON (enables obs)
//   --overhead-check   measure the pay-for-what-you-use claim: the 4-thread
//                      configuration is timed with observability disabled and
//                      enabled; the delta is printed and the disabled run is
//                      asserted to have recorded nothing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/pfpl.hpp"
#include "data/synthetic.hpp"
#include "ingest/pipeline.hpp"
#include "obs/flight.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace repro;

namespace {

/// One suite file as an in-memory ingest item, plus its reference stream.
struct Job {
  std::string name;
  DType dtype;
  Bytes raw;
  Bytes reference;
};

const pfpl::Params kParams{1e-3, EbType::ABS};

/// One pass over every job: one pipeline run per dtype. Returns the streams
/// in job order (empty where an item failed) and the summed run stats.
struct Pass {
  std::vector<Bytes> streams;
  u64 chunks = 0, peak_queue_items = 0;
};

Pass run_pass(const std::vector<Job>& jobs, unsigned threads) {
  Pass pass;
  pass.streams.resize(jobs.size());
  for (DType dtype : {DType::F32, DType::F64}) {
    std::vector<ingest::Item> items;
    std::vector<std::size_t> index;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].dtype != dtype) continue;
      items.push_back(ingest::Item{jobs[j].name, "", jobs[j].raw});
      index.push_back(j);
    }
    if (items.empty()) continue;
    ingest::IngestPipeline::Options o;
    o.dtype = dtype;
    o.params = kParams;
    o.threads = threads;
    ingest::IngestPipeline pipe(o);
    std::vector<ingest::Result> rs = pipe.run(std::move(items));
    for (std::size_t i = 0; i < rs.size(); ++i)
      if (!rs[i].failed) pass.streams[index[i]] = std::move(rs[i].stream);
    pass.chunks += pipe.stats().chunks;
    pass.peak_queue_items = std::max(pass.peak_queue_items, pipe.stats().peak_queue_items);
  }
  return pass;
}

/// Median pass wall time in ms over `reps` runs; `out` keeps the last pass.
double median_pass_ms(const std::vector<Job>& jobs, unsigned threads, int reps, Pass* out) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    *out = run_pass(jobs, threads);
    times.push_back(t.seconds() * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, report_path;
  bool overhead_check = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) trace_path = argv[++i];
    else if (!std::strcmp(argv[i], "--report") && i + 1 < argc) report_path = argv[++i];
    else if (!std::strcmp(argv[i], "--overhead-check")) overhead_check = true;
  }
  if (!trace_path.empty() || !report_path.empty()) obs::set_enabled(true);

  // Laptop-scale mix: every suite, 2 files each, ~256K values per file. The
  // reference streams are the determinism re-check.
  auto suites = data::generate_all(/*target_values=*/1 << 18, /*max_files=*/2);
  std::vector<Job> jobs;
  std::size_t total_bytes = 0;
  for (const auto& suite : suites) {
    for (const auto& file : suite.files) {
      const Field field = file.field();
      const u8* p = static_cast<const u8*>(field.data);
      jobs.push_back({suite.spec.name + "/" + file.name, field.dtype,
                      Bytes(p, p + field.byte_size()), pfpl::compress(field, kParams)});
      total_bytes += field.byte_size();
    }
  }
  std::printf("chunk fan-out throughput: %zu fields, %.1f MB total\n", jobs.size(),
              total_bytes / 1e6);

  std::printf("%8s %10s %10s %9s %8s %8s\n", "threads", "wall_ms", "GB/s", "speedup",
              "chunks", "depth");
  double base_ms = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    // Median-of-3 protocol (scaled down from the paper's 9 for batch size).
    Pass pass;
    const double best_ms = median_pass_ms(jobs, threads, 3, &pass);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (pass.streams[j] != jobs[j].reference) {
        std::fprintf(stderr, "FAIL: threads=%u produced non-identical output for %s\n",
                     threads, jobs[j].name.c_str());
        return 1;
      }
    }

    if (threads == 1) base_ms = best_ms;
    std::printf("%8u %10.2f %10.3f %8.2fx %8llu %8llu\n", threads, best_ms,
                total_bytes / 1e6 / best_ms, base_ms / best_ms,
                static_cast<unsigned long long>(pass.chunks),
                static_cast<unsigned long long>(pass.peak_queue_items));
  }

  if (overhead_check) {
    // Pay-for-what-you-use: time the 4-thread pass with observability off,
    // then on. The disabled run must record nothing; the delta quantifies
    // the cost of leaving the instrumentation compiled in but switched off
    // vs. fully active.
    const bool was_enabled = obs::enabled();
    Pass scratch;

    obs::set_enabled(false);
    obs::TraceRecorder::global().clear();
    obs::MetricsRegistry::global().reset();
    const double off_ms = median_pass_ms(jobs, 4, 5, &scratch);
    if (obs::TraceRecorder::global().event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled observability recorded spans\n");
      return 1;
    }
    // The kernel timers ride the same gate: a disabled run must attribute
    // nothing (no clock reads happened, so no bytes/latency either).
    for (const obs::KernelStat& st : obs::kernel_stats()) {
      if (st.calls != 0 || st.bytes != 0) {
        std::fprintf(stderr, "FAIL: disabled observability recorded kernel '%s'\n",
                     st.name);
        return 1;
      }
    }
    // Nobody configured the flight recorder here, so its sampler thread must
    // not exist — disabled observability means no background threads at all.
    if (obs::FlightRecorder::global().running()) {
      std::fprintf(stderr, "FAIL: flight-recorder sampler running unrequested\n");
      return 1;
    }

    obs::set_enabled(true);
    const double on_ms = median_pass_ms(jobs, 4, 5, &scratch);
    obs::set_enabled(was_enabled);

    const double delta_pct = (on_ms - off_ms) / off_ms * 100.0;
    std::printf("overhead-check (4 threads): obs-off %.2f ms, obs-on %.2f ms, "
                "delta %+.2f%%\n", off_ms, on_ms, delta_pct);
  }

  if (!report_path.empty()) {
    obs::RunReport& report = obs::RunReport::global();
    report.set_meta("tool", "bench_svc_throughput");
    report.set_meta("jobs", std::to_string(jobs.size()));
    report.write(report_path);
    std::printf("report: %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_chrome_json(trace_path);
    std::printf("trace: %s\n", trace_path.c_str());
  }
  return 0;
}
