// Workloads codec_serial and codec_omp: in-process compress + decompress.
//
// codec_serial is the paper's Fig. 6-15 matrix on one thread: every Table II
// suite under ABS, REL and NOA. Kernels are the whole budget and no
// transport runs, so a kernel change shows here first.
//
// codec_omp is the paper's CPU-parallel headline: one f32 field whose
// working set is well above the per-core L2, compressed and decompressed
// with Executor::OpenMP on every core and compared with Serial. It is the
// only workload that runs the OpenMP loops of core/pfpl.cpp, and the
// sequential plan/assemble share shows here.
#include <omp.h>

#include <exception>

#include "bench.hpp"
#include "core/pfpl.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "staged.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb {
namespace {

using repro::EbType;
using repro::Field;
namespace pfpl = repro::pfpl;

/// codec_serial inputs: three files (variables) per suite of 512 KiB (f32) or
/// 1 MiB (f64) each, 19.5 MiB per bound type. Several files per suite keep
/// the ratio and the speed from hanging on one seed's draw.
constexpr std::size_t kSerialValues = std::size_t{1} << 17;
constexpr int kSerialFiles = 3;
/// The codec_omp field: 32 MiB of f32, four times the L2 of all cores
/// together on the reference host.
constexpr std::size_t kOmpValues = std::size_t{8} << 20;
/// The head of the codec_omp field that the set-up's warm-up compresses:
/// 1 MiB, 64 chunks, enough to start the thread team on every core.
constexpr std::size_t kOmpWarmValues = std::size_t{1} << 18;
constexpr EbType kAllEbs[] = {EbType::ABS, EbType::REL, EbType::NOA};

constexpr const char* span_root_compress = "codec.compress";
constexpr const char* span_root_decompress = "codec.decompress";

/// The end-to-end figures of a codec workload from its per-pass times:
/// throughput_MBps counts each case's raw bytes once for the compress and
/// once for the decompress; the split is printed as details.
void report_codec(const std::vector<double>& setup_s, const std::vector<PassTimes>& passes,
                  const std::vector<Case>& cases, Report& rep) {
  std::vector<double> both, cm, dm;
  for (const PassTimes& p : passes) {
    both.push_back(2.0 * p.bytes / 1e6 / (p.compress_s + p.decompress_s));
    cm.push_back(p.bytes / 1e6 / p.compress_s);
    dm.push_back(p.bytes / 1e6 / p.decompress_s);
  }
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_MBps", pass_rate(both), "MB/s");
  rep.add("ratio", ratio_of(cases), "ratio");
  rep.add("peak_rss_MB", peak_rss_mb(), "MB");
  rep.detail("compress_MBps", pass_rate(cm), "MB/s");
  rep.detail("decompress_MBps", pass_rate(dm), "MB/s");
}

// ---------------------------------------------------------------------------
// codec_serial

struct SerialState {
  std::vector<repro::data::SyntheticFile> files;
  std::vector<Case> cases;
};

/// Inputs, then a warm-up of one operation per dtype and bound type (first
/// calls into each code path).
SerialState setup_serial(u64 seed) {
  SerialState s;
  s.files = codec_serial_inputs(seed, kSerialValues, kSerialFiles);
  for (const auto& f : s.files)
    for (EbType eb : kAllEbs) s.cases.push_back({f.field(), eb, {}, {}});
  std::vector<Case> first;
  for (const Case& c : s.cases) {
    bool seen = false;
    for (const Case& f : first) seen = seen || (f.field.dtype == c.field.dtype && f.eb == c.eb);
    if (!seen) first.push_back(c);
  }
  warm_up(first, pfpl::Executor::Serial);
  return s;
}

/// The shared layer probe over every file (three reps), whose staged pass
/// covers the same operations as one untimed Serial pass of the workload.
void trace_serial(const Config& cfg, const SerialState& s, Report& rep) {
  std::vector<Field> fields;
  for (const auto& f : s.files) fields.push_back(f.field());
  Tracer tr;
  const LayerTimes t = probe_layers(fields, 3, tr, rep);
  rep.add("trace.overhead_share", (t.staged_ms - t.untraced_ms) / t.untraced_ms, "ratio");
  write_trace(cfg, tr);
}

// ---------------------------------------------------------------------------
// codec_omp

struct OmpState {
  std::vector<float> values;
  std::vector<Case> cases;  // one case: the field under ABS
};

OmpState setup_omp(u64 seed) {
  OmpState s;
  s.values = std::move(f32_arrays(mix(seed, 0x0A1), 1, kOmpValues).front());
  s.cases.push_back({Field(s.values.data(), s.values.size()), EbType::ABS, {}, {}});
  // The first OpenMP pass runs several times slower than the steady state
  // (thread team creation, first touch). The team start belongs to set-up;
  // the full-size first pass runs after the references.
  warm_up({Case{Field(s.values.data(), kOmpWarmValues), EbType::ABS, {}, {}}},
          pfpl::Executor::OpenMP);
  return s;
}

/// pfpl::compress and pfpl::decompress with the OpenMP executor, one span
/// around each call, against untimed passes; then the shared layer probe on
/// the field (one rep: it is 32 MiB under three bound types).
void trace_omp(const Config& cfg, const OmpState& s, Report& rep) {
  const Case& c = s.cases.front();
  std::vector<double> omp_cd;
  for (int i = 0; i < 5; ++i) {
    const PassTimes p = codec_pass(s.cases, pfpl::Executor::OpenMP, rep.ops);
    omp_cd.push_back((p.compress_s + p.decompress_s) * 1e3);
  }
  constexpr int reps = 5;
  Tracer tr;
  for (int r = 0; r < reps; ++r) {
    std::string why;
    try {
      Bytes stream;
      {
        Tracer::Scope root(tr, span_root_compress);
        stream = pfpl::compress(c.field, {kEps, c.eb, pfpl::Executor::OpenMP});
      }
      std::vector<u8> back;
      {
        Tracer::Scope root(tr, span_root_decompress);
        back = pfpl::decompress(stream, pfpl::Executor::OpenMP);
      }
      why = check_bytes("OpenMP stream", stream, c.ref_stream);
      if (why.empty()) why = check_bound(c.field, back, c.eb, kEps);
      if (why.empty()) why = check_bytes("OpenMP decompressed", back, c.ref_recon);
    } catch (const std::exception& e) {
      why = e.what();
    }
    rep.ops.record(why);
  }
  Tracer lt;
  const LayerTimes t = probe_layers({c.field}, 1, lt, rep);

  const double compress_ms = tr.layer(span_root_compress).total_ms / reps;
  const double decompress_ms = tr.layer(span_root_decompress).total_ms / reps;
  const double traced_ms = compress_ms + decompress_ms;
  const double untraced_ms = median(omp_cd);
  print_budget(stdout,
               "codec_omp, one OpenMP compress + decompress (" +
                   std::to_string(omp_get_max_threads()) +
                   " threads; plan and assemble timed alone)",
               {{kSpanPlan, t.plan_ms},
                {kSpanAssemble, t.assemble_ms},
                {"pfpl::decompress", decompress_ms}},
               compress_ms - t.plan_ms - t.assemble_ms, traced_ms, untraced_ms,
               "(parallel encode_chunk)");
  rep.add("trace.overhead_share", (traced_ms - untraced_ms) / untraced_ms, "ratio");
  tr.append(lt);
  write_trace(cfg, tr);
}

}  // namespace

Report run_codec_serial(const Config& cfg) {
  Report rep;
  std::optional<SerialState> st;
  std::vector<double> setup_s;
  timed_setups(st, setup_s, [&] { return setup_serial(cfg.seed); });
  const u64 t0 = now_ns();
  make_case_references(st->cases, rep.ops);
  std::fprintf(stderr, "Serial references of %zu operations: %.3f s (not in setup_s)\n",
               st->cases.size(), (now_ns() - t0) / 1e9);
  if (cfg.trace) {
    trace_serial(cfg, *st, rep);
    return rep;
  }
  std::vector<PassTimes> passes;
  run_for(cfg.seconds, 3, [&] {
    passes.push_back(codec_pass(st->cases, pfpl::Executor::Serial, rep.ops));
    return true;
  });
  std::fprintf(stderr, "codec_serial: %zu passes of %zu operations\n", passes.size(),
               st->cases.size());
  report_codec(setup_s, passes, st->cases, rep);
  return rep;
}

Report run_codec_omp(const Config& cfg) {
  omp_set_num_threads(static_cast<int>(cpu_count()));
  Report rep;
  std::optional<OmpState> st;
  std::vector<double> setup_s;
  timed_setups(st, setup_s, [&] { return setup_omp(cfg.seed); });
  make_case_references(st->cases, rep.ops);
  const u64 t0 = now_ns();
  warm_up(st->cases, pfpl::Executor::OpenMP);
  std::fprintf(stderr, "one untimed OpenMP pass: %.3f s (not in setup_s)\n",
               (now_ns() - t0) / 1e9);
  if (cfg.trace) {
    trace_omp(cfg, *st, rep);
    return rep;
  }
  std::vector<PassTimes> passes;
  run_for(cfg.seconds, 3, [&] {
    passes.push_back(codec_pass(st->cases, pfpl::Executor::OpenMP, rep.ops));
    return true;
  });
  std::fprintf(stderr, "codec_omp: %zu passes, %d threads\n", passes.size(),
               omp_get_max_threads());
  report_codec(setup_s, passes, st->cases, rep);
  return rep;
}

}  // namespace pb
