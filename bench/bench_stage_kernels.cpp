// Section V-F analogue: per-stage micro-benchmarks (google-benchmark), plus
// a harness-mode kernel sweep for the regression baseline.
//
// The paper profiles the CUDA kernels and finds PFPL compute-bound with the
// quantizer doing only a few FP operations. These micro-benchmarks measure
// each pipeline stage and the fused end-to-end paths on this host, giving
// the per-stage cost breakdown behind the Figure 6/7 throughput numbers.
//
// Two modes share the binary:
//
//   default              google-benchmark micro-benchmarks (BM_* below)
//   --kernel-sweep, or any of --baseline / --update-baseline / --json /
//   --gate               harness mode: run the full encode+decode path with
//                        kernel attribution enabled and emit one bench::Row
//                        per pipeline kernel ("Kernel/<name>@<eps>/..."), so
//                        per-kernel MB/s rides BENCH_baseline.json and the
//                        perf-smoke gate alongside the end-to-end figures.
//                        A "Kernel/crc32@0" row times the CRC-32 that
//                        guards every stored and wired payload (PFPA, PFPN,
//                        PFPS, PFPV, PFSM) on the same input bytes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "bits/bitshuffle.hpp"
#include "bits/crc32.hpp"
#include "bits/simd.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "common/timer.hpp"
#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "data/rng.hpp"
#include "harness.hpp"
#include "obs/control.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"

using namespace repro;

namespace {

std::vector<float> smooth_input(std::size_t n) {
  data::Rng rng(7);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(std::sin(acc) + acc * 0.1);
  }
  return v;
}

std::vector<u32> quantized_words(std::size_t n) {
  auto v = smooth_input(n);
  pfpl::AbsQuantizer<float> q(1e-3);
  std::vector<u32> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = q.encode(v[i]);
  return w;
}

constexpr std::size_t kN = 1 << 20;  // 4 MB of f32
constexpr std::size_t kSweepValues = 4 << 20;  // 16 MiB of f32 per kernel-sweep rep

void BM_QuantizeAbs(benchmark::State& state) {
  auto v = smooth_input(kN);
  pfpl::AbsQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kN; ++i) w[i] = q.encode(v[i]);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_QuantizeAbs);

void BM_QuantizeRel(benchmark::State& state) {
  auto v = smooth_input(kN);
  for (auto& x : v) x += 2.0f;
  pfpl::RelQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kN; ++i) w[i] = q.encode(v[i]);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_QuantizeRel);

void BM_DeltaNegabinary(benchmark::State& state) {
  auto w = quantized_words(kN);
  std::vector<u32> buf(kN);
  for (auto _ : state) {
    buf = w;
    bits::delta_negabinary_encode(buf.data(), kN);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_DeltaNegabinary);

void BM_BitShuffle(benchmark::State& state) {
  auto w = quantized_words(kN);
  for (auto _ : state) {
    bits::bitshuffle(w.data(), kN);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_BitShuffle);

void BM_ZeroByteEncode(benchmark::State& state) {
  auto w = quantized_words(kN);
  bits::delta_negabinary_encode(w.data(), kN);
  bits::bitshuffle(w.data(), kN);
  for (auto _ : state) {
    std::vector<u8> out;
    out.reserve(kN * 4);
    bits::zerobyte_encode(reinterpret_cast<const u8*>(w.data()), kN * 4, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_ZeroByteEncode);

void BM_ChunkPipeline(benchmark::State& state) {
  auto w = quantized_words(kN);
  constexpr std::size_t cw = pfpl::chunk_words<u32>();
  for (auto _ : state) {
    std::vector<u8> out;
    out.reserve(kN * 4);
    for (std::size_t beg = 0; beg < kN; beg += cw)
      pfpl::chunk_encode(w.data() + beg, std::min(cw, kN - beg), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_ChunkPipeline);

void BM_PfplCompressSerial(benchmark::State& state) {
  auto v = smooth_input(kN);
  Field f(v.data(), v.size());
  for (auto _ : state) {
    Bytes c = pfpl::compress(f, {1e-3, EbType::ABS, pfpl::Executor::Serial});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplCompressSerial);

void BM_PfplCompressOmp(benchmark::State& state) {
  auto v = smooth_input(kN);
  Field f(v.data(), v.size());
  for (auto _ : state) {
    Bytes c = pfpl::compress(f, {1e-3, EbType::ABS, pfpl::Executor::OpenMP});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplCompressOmp);

void BM_PfplDecompressSerial(benchmark::State& state) {
  auto v = smooth_input(kN);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  for (auto _ : state) {
    auto raw = pfpl::decompress(c);
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplDecompressSerial);

/// Harness mode: run the end-to-end encode+decode path `runs` times with the
/// metrics registry reset per rep, and convert each rep's kernel attribution
/// (obs::kernel_stats) into per-kernel MB/s samples. Encode kernels report
/// under comp_MBps, decode kernels under decomp_MBps; ratio/PSNR/violations
/// are structurally unmeasured for a kernel row and are skipped.
int kernel_sweep_main(int argc, char** argv) {
  bench::SweepConfig cfg = bench::parse_args(argc, argv, bench::SweepConfig{});
  obs::set_enabled(true);  // kernel timers are obs-gated
  const int runs = std::max(3, cfg.runs);
  const double eps = 1e-3;
  // At least 16 MiB through every kernel per rep: a few chunks time a few
  // microseconds per kernel call and vary by up to 3x run to run.
  const std::size_t n = std::max<std::size_t>(cfg.target_values, kSweepValues);
  std::fprintf(stderr, "kernel tier: %s, %zu f32 values (%.1f MiB) per rep\n",
               bits::tier_name(bits::simd_tier()), n, n * 4.0 / (1 << 20));

  auto v = smooth_input(n);
  Field field(v.data(), v.size());

  // samples[kernel] = one MB/s sample per rep; crc_samples likewise.
  std::vector<std::vector<double>> samples(obs::kKernelCount);
  std::vector<double> crc_samples;
  for (int rep = 0; rep < runs; ++rep) {
    Timer t;
    benchmark::DoNotOptimize(bits::crc32(v.data(), field.byte_size()));
    crc_samples.push_back(static_cast<double>(field.byte_size()) / 1e6 / t.seconds());

    obs::MetricsRegistry::global().reset();
    Bytes c = pfpl::compress(field, {eps, EbType::ABS, pfpl::Executor::Serial});
    auto raw = pfpl::decompress(c);
    benchmark::DoNotOptimize(raw.data());
    const std::vector<obs::KernelStat> stats = obs::kernel_stats();
    for (std::size_t k = 0; k < stats.size() && k < samples.size(); ++k)
      if (stats[k].calls > 0 && stats[k].mbps > 0) samples[k].push_back(stats[k].mbps);
  }

  std::vector<bench::Row> rows;
  const std::vector<obs::KernelStat> order = obs::kernel_stats();
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (samples[k].empty()) continue;
    std::vector<double> s = samples[k];
    std::sort(s.begin(), s.end());
    const double med = s[s.size() / 2];
    bench::Row row;
    row.compressor = order[k].name;
    row.eb = eps;
    row.has_ratio = row.has_psnr = row.has_violations = false;
    if (order[k].encode) {
      row.comp_mbps = med;
      row.comp_run_mbps = samples[k];
      row.has_decomp = false;
    } else {
      row.decomp_mbps = med;
      row.decomp_run_mbps = samples[k];
      row.has_comp = false;
    }
    rows.push_back(row);
  }
  {
    std::vector<double> s = crc_samples;
    std::sort(s.begin(), s.end());
    bench::Row row;
    row.compressor = "crc32";
    row.eb = 0;
    row.has_ratio = row.has_psnr = row.has_violations = row.has_decomp = false;
    row.comp_mbps = s[s.size() / 2];
    row.comp_run_mbps = crc_samples;
    rows.push_back(row);
    std::fprintf(stderr, "crc32 tier: %s (%s), %.1f MiB per rep, median %.0f MB/s\n",
                 bits::tier_name(bits::simd_tier()),
                 bits::simd_tier() == bits::Tier::Avx512 ? "pclmulqdq fold" : "table",
                 field.byte_size() / double(1 << 20), row.comp_mbps);
  }
  bench::print_rows("Kernel", rows);
  std::fprintf(stderr, "%s", obs::kernel_table_text().c_str());
  return bench::finish();
}

}  // namespace

int main(int argc, char** argv) {
  // Harness flags switch the binary into the kernel sweep; everything else
  // goes to google-benchmark untouched.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--kernel-sweep") || !std::strcmp(argv[i], "--baseline") ||
        !std::strcmp(argv[i], "--update-baseline") || !std::strcmp(argv[i], "--json") ||
        !std::strcmp(argv[i], "--gate"))
      return kernel_sweep_main(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
