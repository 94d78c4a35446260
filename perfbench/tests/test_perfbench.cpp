// Tests of the benchmark itself: its percentile helper, the staged
// decomposition the traced run times, input determinism, failure
// accounting, and a clean run on a held-out seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "bench.hpp"
#include "core/chunked.hpp"
#include "core/pfpl.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "staged.hpp"
#include "stats.hpp"

namespace {

using repro::Bytes;
using repro::DType;
using repro::EbType;
using repro::Field;
namespace pfpl = repro::pfpl;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentiles, HighestWithTenSamplesBeyondAndReportsN) {
  pb::Tail t = pb::highest_supported(iota_samples(1000));
  EXPECT_EQ(t.n, 1000u);
  EXPECT_DOUBLE_EQ(t.p, 99.0);  // 10 samples beyond p99; p99.9 would have 1
  EXPECT_DOUBLE_EQ(t.value, 990.0);

  t = pb::highest_supported(iota_samples(999));
  EXPECT_DOUBLE_EQ(t.p, 95.0);  // 9.99 beyond p99 is too few
  EXPECT_EQ(t.n, 999u);

  EXPECT_DOUBLE_EQ(pb::highest_supported(iota_samples(10000)).p, 99.9);
  EXPECT_DOUBLE_EQ(pb::highest_supported(iota_samples(10000), 99).p, 99.0);
  EXPECT_DOUBLE_EQ(pb::highest_supported(iota_samples(20)).p, 50.0);
  const pb::Tail none = pb::highest_supported(iota_samples(19));
  EXPECT_DOUBLE_EQ(none.p, 0.0);
  EXPECT_EQ(none.n, 19u);
}

TEST(Percentiles, NearestRankAndMedian) {
  const std::vector<double> v = iota_samples(100);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(pb::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4, 1, 3, 2}), 2.5);
}

template <typename T>
void expect_staged_matches(const std::vector<T>& v, EbType eb, bool must_have_raw) {
  const Field f(v.data(), v.size());
  const pfpl::Params p{1e-3, eb, pfpl::Executor::Serial};
  pb::Tracer tr;
  pb::StagedCounts cnt;
  const Bytes staged = pb::staged_compress(f, p, tr, cnt);
  const Bytes ref = pfpl::compress(f, p);
  ASSERT_EQ(staged, ref) << repro::to_string(eb);
  if (must_have_raw) {
    EXPECT_EQ(cnt.raw_chunks, cnt.chunks);
  }

  // Every chunk payload equals pfpl::encode_chunk's output for that chunk.
  const pfpl::Header h = pfpl::plan_header(f, p);
  std::vector<repro::u32> sizes(h.chunk_count);
  std::memcpy(sizes.data(), staged.data() + sizeof(pfpl::Header), sizes.size() * 4);
  std::size_t off = sizeof(pfpl::Header) + sizes.size() * 4;
  for (std::size_t c = 0; c < h.chunk_count; ++c) {
    std::vector<repro::u8> chunk;
    ASSERT_EQ(pfpl::encode_chunk(f, h, c, pfpl::Executor::Serial, chunk), sizes[c]);
    const std::size_t n = sizes[c] & ~pfpl::kRawChunkFlag;
    ASSERT_EQ(chunk.size(), n);
    ASSERT_EQ(std::memcmp(chunk.data(), staged.data() + off, n), 0) << "chunk " << c;
    off += n;
  }

  EXPECT_EQ(pb::staged_decompress(staged, tr, cnt), pfpl::decompress(ref));
  for (const char* span : {pb::kSpanPlan, pb::kSpanDeltaNb, pb::kSpanBitshuffle,
                           pb::kSpanZerobyteEnc, pb::kSpanAssemble, pb::kSpanDequantize})
    EXPECT_GT(tr.layer(span).count, 0u) << span;
}

TEST(Staged, ReproducesEncodeChunkAndCompressBytes) {
  const auto files = pb::codec_serial_inputs(7, 20000, 2);
  for (const auto& file : files)
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      if (file.dtype == DType::F32)
        expect_staged_matches(file.f32, eb, false);
      else
        expect_staged_matches(file.f64, eb, false);
    }
}

TEST(Staged, RawChunkFallbackAndPartialLastChunk) {
  // Uniformly random bit patterns (NaNs and huge values included) are stored
  // as themselves and do not shrink: every chunk falls back to raw storage.
  std::mt19937 rng(3);
  std::vector<float> v(3 * 4096 + 77);
  for (float& x : v) {
    const repro::u32 bits = rng();
    std::memcpy(&x, &bits, sizeof x);
  }
  expect_staged_matches(v, EbType::ABS, true);
}

TEST(Staged, SelfTimesAddUpToRoot) {
  const auto files = pb::codec_serial_inputs(2, 20000, 1);
  pb::Tracer tr;
  pb::StagedCounts cnt;
  {
    pb::Tracer::Scope root(tr, "root");
    pb::staged_compress(files[0].field(), {1e-3, EbType::REL, pfpl::Executor::Serial}, tr, cnt);
  }
  double self = 0;
  for (const auto& l : tr.layers()) self += l.self_ms;
  EXPECT_NEAR(self, tr.layer("root").total_ms, 1e-6);
}

TEST(Inputs, SameSeedSameBytesOtherSeedOtherBytes) {
  const auto a = pb::codec_serial_inputs(11, 5000, 2);
  const auto b = pb::codec_serial_inputs(11, 5000, 2);
  const auto c = pb::codec_serial_inputs(12, 5000, 2);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].f32, b[i].f32);
    EXPECT_EQ(a[i].f64, b[i].f64);
  }
  EXPECT_NE(a[0].f32, c[0].f32);
  EXPECT_EQ(pb::f32_arrays(5, 3, 4096), pb::f32_arrays(5, 3, 4096));
  EXPECT_NE(pb::f32_arrays(5, 3, 4096), pb::f32_arrays(6, 3, 4096));
  for (const auto& v : pb::f32_arrays(5, 3, 4096)) EXPECT_EQ(v.size(), 4096u);
}

TEST(Outcome, CorruptedServerResponseCountsAsFailed) {
  const std::vector<float> v = pb::f32_arrays(9, 1, 16384).front();
  const Field f(v.data(), v.size());
  const Bytes ref = pfpl::compress(f, {pb::kEps, EbType::ABS, pfpl::Executor::Serial});

  repro::net::Server::Options so;
  so.threads = 1;
  repro::net::Server server(so);
  std::thread loop([&] { server.run(); });
  repro::net::Client::Options co;
  co.port = server.port();
  repro::net::Client client(co);
  Bytes stream = client.compress(v.data(), v.size() * 4, DType::F32, EbType::ABS, pb::kEps);
  std::vector<repro::u8> back = client.decompress(ref);
  server.request_stop();
  loop.join();

  pb::Outcome ops;
  ops.record(pb::check_bytes("COMPRESS response", stream, ref));
  ops.record(pb::check_bound(f, back, EbType::ABS, pb::kEps));
  EXPECT_EQ(ops.attempted, 2u);
  EXPECT_EQ(ops.failed, 0u);

  stream[stream.size() / 2] ^= 0x10;  // flipped bit in a chunk payload
  ops.record(pb::check_bytes("COMPRESS response", stream, ref));
  float x;
  std::memcpy(&x, back.data() + 400, 4);
  x += 1.0f;  // far outside the 1e-3 bound
  std::memcpy(back.data() + 400, &x, 4);
  ops.record(pb::check_bound(f, back, EbType::ABS, pb::kEps));
  back.pop_back();  // truncated response
  ops.record(pb::check_bound(f, back, EbType::ABS, pb::kEps));
  EXPECT_EQ(ops.attempted, 5u);
  EXPECT_EQ(ops.failed, 3u);
  ASSERT_EQ(ops.errors.size(), 3u);
  EXPECT_NE(ops.errors[1].find("outside the ABS bound"), std::string::npos);
}

// The metric names of BENCHMARK.json: every workload reports exactly these.
const std::vector<std::string> kEndToEnd = {"setup_s", "throughput_MBps", "ratio",
                                            "peak_rss_MB"};
const std::vector<std::string> kPerLayer = {
    "core.quantize_abs_MBps", "core.quantize_rel_MBps", "core.quantize_noa_MBps",
    "core.dequantize_MBps", "bits.delta_nb_MBps", "bits.delta_nb_dec_MBps",
    "bits.bitshuffle_MBps", "bits.zerobyte_enc_MBps", "bits.zerobyte_dec_MBps",
    "fpmath.det_log_ns", "fpmath.det_exp_ns", "core.plan_ms", "core.assemble_ms",
    "omp.serial_share", "omp.speedup", "core.encode_chunk_p50_us", "core.encode_chunk_p99_us",
    "core.raw_chunk_share", "core.computed_bytes_per_byte", "core.unattributed_share",
    "store.key_us", "store.get_us", "store.put_us", "net.frame_encode_us",
    "net.frame_parse_us", "trace.overhead_share"};

class HeldOutSeed : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(HeldOutSeed, RunsCleanAndReportsTheManifestMetrics) {
  pb::Config cfg;
  cfg.workload = std::get<0>(GetParam());
  cfg.trace = std::get<1>(GetParam());
  cfg.seed = 987654321;  // never used while the benchmark was tuned
  cfg.seconds = 0.1;
  const std::filesystem::path tmp =
      std::filesystem::current_path() / ("perfbench-test-" + std::to_string(getpid()));
  cfg.tmp_dir = tmp.string();
  pb::Report rep;
  if (cfg.workload == "codec_serial") rep = pb::run_codec_serial(cfg);
  if (cfg.workload == "codec_omp") rep = pb::run_codec_omp(cfg);
  if (cfg.workload == "served") rep = pb::run_served(cfg);
  if (cfg.workload == "ingest") rep = pb::run_ingest(cfg);
  std::filesystem::remove_all(tmp);
  EXPECT_GT(rep.ops.attempted, 0u);
  EXPECT_EQ(rep.ops.failed, 0u) << (rep.ops.errors.empty() ? "" : rep.ops.errors[0]);
  std::vector<std::string> names;
  for (const pb::Metric& m : rep.metrics) {
    names.push_back(m.name);
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    if (!cfg.trace) {
      EXPECT_GT(m.value, 0) << m.name;
    }
  }
  std::vector<std::string> want = cfg.trace ? kPerLayer : kEndToEnd;
  std::sort(names.begin(), names.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(names, want);
}

INSTANTIATE_TEST_SUITE_P(Workloads, HeldOutSeed,
                         ::testing::Combine(::testing::Values("codec_serial", "codec_omp",
                                                              "served", "ingest"),
                                            ::testing::Bool()));

}  // namespace
