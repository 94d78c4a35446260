// Workload ingest: IngestPipeline packs on-disk f32 files into a persistent
// ChunkStore under a temporary directory, with fsync per append off, as
// `pfpl pack --store` runs it.
//
// It is the same codec as the other workloads, driven through the svc pool
// fan-out and the write side of the store, beside served's read side. Each
// pass opens a fresh store and runs the pipeline twice, like two incremental
// packs: the first run stores every file of the first batch; the second
// batch holds copies of half of those files (answered by the store's dedup
// probe) and new files.
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "bench.hpp"
#include "core/pfpl.hpp"
#include "ingest/pipeline.hpp"
#include "inputs.hpp"
#include "io/buffered_reader.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "store/store.hpp"
#include "trace.hpp"

namespace pb {
namespace {

using repro::DType;
using repro::EbType;
using repro::Field;
namespace fs = std::filesystem;
namespace pfpl = repro::pfpl;
namespace ingest = repro::ingest;
namespace store = repro::store;

constexpr std::size_t kFileValues = std::size_t{1} << 19;  // 2 MiB of f32
constexpr std::size_t kFirstBatch = 12;  // distinct files of the first run
/// The second run alternates a copy of a first-run file with a new file.
constexpr std::size_t kSecondPairs = 6;
constexpr std::size_t kProbeFiles = 4;  // distinct files in the layer probe

/// A file on disk and the Serial reference stream of its content.
struct File {
  std::string path;
  std::size_t content = 0;  ///< index into IngestState::contents
};

/// Removes its directory tree on destruction.
class TempDir {
 public:
  explicit TempDir(fs::path p) : path_(std::move(p)) { fs::create_directories(path_); }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct IngestState {
  std::unique_ptr<TempDir> dir;
  std::vector<std::vector<float>> contents;
  std::vector<Bytes> reference;  ///< Serial stream per content
  std::vector<File> first, second;
  u64 raw_bytes = 0;     ///< raw bytes ingested per pass
  u64 stream_bytes = 0;  ///< stream bytes delivered per pass
  int passes = 0;
};

ingest::IngestPipeline::Options pipeline_options(store::ChunkStore* cs) {
  ingest::IngestPipeline::Options po;
  po.dtype = DType::F32;
  po.params = {kEps, EbType::ABS, pfpl::Executor::Serial};
  po.store = cs;
  return po;
}

std::string file_name(const char* prefix, std::size_t i, const char* suffix) {
  std::string s(prefix);
  s += std::to_string(i);
  s += suffix;
  return s;
}

std::vector<ingest::Item> items_of(const std::vector<File>& files) {
  std::vector<ingest::Item> items;
  for (const File& f : files) items.push_back({f.path, f.path, {}});
  return items;
}

/// IngestStats summed over pipeline runs, and the wall time around them.
struct PassStats {
  double wall_ms = 0;  ///< measured around the run() calls
  double stage_ms[4] = {0, 0, 0, 0};  ///< read, hash, encode, append
  double pipeline_wall_ms = 0;
  u64 probe_hits = 0, probe_misses = 0, append_batches = 0, peak_queue_bytes = 0;

  void add(const ingest::IngestStats& st) {
    stage_ms[0] += st.read_ms;
    stage_ms[1] += st.hash_ms;
    stage_ms[2] += st.encode_ms;
    stage_ms[3] += st.append_ms;
    pipeline_wall_ms += st.wall_ms;
    probe_hits += st.probe_hits;
    probe_misses += st.probe_misses;
    append_batches += st.append_batches;
    peak_queue_bytes = std::max<u64>(peak_queue_bytes, st.peak_queue_bytes);
  }
};

/// Check every result of a run against the Serial reference of its file.
void check_results(const IngestState& s, const std::vector<File>& files,
                   const std::vector<ingest::Result>& results, Outcome& ops) {
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i >= results.size()) {
      ops.record(files[i].path + ": no result");
      continue;
    }
    const ingest::Result& r = results[i];
    if (r.failed || r.cancelled)
      ops.record(files[i].path + ": " + r.error);
    else
      ops.record(check_bytes("ingest stream", r.stream, s.reference[files[i].content]));
  }
}

/// One pass: a fresh persistent store, the first batch, then the second.
/// Adds the pass's stats to `acc` and returns its wall time in ms.
double ingest_pass(IngestState& s, Outcome& ops, Tracer* tr, PassStats& acc) {
  const TempDir store_dir(s.dir->path() / ("store-" + std::to_string(s.passes++)));
  store::ChunkStore::Options so;
  so.dir = store_dir.path().string();
  so.fsync_each_append = false;
  store::ChunkStore cs(so);
  ingest::IngestPipeline pipe(pipeline_options(&cs));
  const u64 t0 = now_ns();
  for (const std::vector<File>* batch : {&s.first, &s.second}) {
    std::vector<ingest::Result> results;
    {
      std::optional<Tracer::Scope> span;
      if (tr) span.emplace(*tr, "ingest.run");
      results = pipe.run(items_of(*batch));
    }
    acc.add(pipe.stats());
    check_results(s, *batch, results, ops);
  }
  const double ms = (now_ns() - t0) / 1e6;
  acc.wall_ms += ms;
  return ms;
}

/// Inputs, the files on disk, and a warm-up: the pipeline over one file into
/// a fresh store (pool, codec, store).
IngestState setup_ingest(const Config& cfg) {
  IngestState s;
  s.dir = std::make_unique<TempDir>(fs::path(cfg.tmp_dir) /
                                    ("ingest-" + std::to_string(getpid())));
  s.contents = f32_arrays(mix(cfg.seed, 0x16), kFirstBatch + kSecondPairs, kFileValues);
  auto write = [&](const std::string& name, std::size_t content) {
    const std::string path = (s.dir->path() / name).string();
    std::ofstream f(path, std::ios::binary);
    const std::vector<float>& v = s.contents[content];
    f.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
    if (!f) throw std::runtime_error("cannot write " + path);
    s.raw_bytes += v.size() * sizeof(float);
    return File{path, content};
  };
  for (std::size_t i = 0; i < kFirstBatch; ++i)
    s.first.push_back(write(file_name("a", i, ".f32"), i));
  // Copies are of every other first-batch file, under new names.
  for (std::size_t i = 0; i < kSecondPairs; ++i) {
    s.second.push_back(write(file_name("b", i, "-copy.f32"), 2 * i % kFirstBatch));
    s.second.push_back(write(file_name("b", i, ".f32"), kFirstBatch + i));
  }
  const TempDir warm_dir(s.dir->path() / "warm-up");
  store::ChunkStore::Options so;
  so.dir = warm_dir.path().string();
  so.fsync_each_append = false;
  store::ChunkStore cs(so);
  ingest::IngestPipeline(pipeline_options(&cs)).run(items_of({s.first.front()}));
  return s;
}

/// Serial reference stream of every content, checked against the bound, then
/// one untimed full pass. Both run once, after the timed set-ups and before
/// any timing, and are not part of setup_s.
void make_references(IngestState& s, Outcome& ops) {
  const u64 t0 = now_ns();
  for (const std::vector<float>& v : s.contents) {
    std::string why;
    Bytes stream;
    try {
      const Field f(v.data(), v.size());
      stream = pfpl::compress(f, {kEps, EbType::ABS, pfpl::Executor::Serial});
      why = check_bound(f, pfpl::decompress(stream), EbType::ABS, kEps);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ops.record(why);
    s.reference.push_back(std::move(stream));
  }
  for (const std::vector<File>* batch : {&s.first, &s.second})
    for (const File& f : *batch) s.stream_bytes += s.reference[f.content].size();
  const u64 t1 = now_ns();
  PassStats warm_up;
  ingest_pass(s, ops, nullptr, warm_up);
  std::fprintf(stderr,
               "Serial references: %.3f s, one untimed pass: %.3f s (not in setup_s)\n",
               (t1 - t0) / 1e9, (now_ns() - t1) / 1e9);
}

void trace_ingest(const Config& cfg, IngestState& s, Report& rep) {
  std::vector<double> untraced;
  PassStats unused;
  run_for(cfg.seconds / 2, 3, [&] {
    untraced.push_back(ingest_pass(s, rep.ops, nullptr, unused));
    return true;
  });
  Tracer tr;
  PassStats sum;
  int passes = 0;
  run_for(cfg.seconds / 2, 3, [&] {
    Tracer::Scope root(tr, "ingest.pass");
    ingest_pass(s, rep.ops, &tr, sum);
    ++passes;
    return true;
  });
  const double n = passes;
  const char* stage[4] = {"ingest.read", "ingest.hash", "ingest.encode", "ingest.append"};
  std::vector<BudgetRow> rows;
  double stages = 0;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({stage[i], sum.stage_ms[i] / n});
    stages += sum.stage_ms[i] / n;
  }
  const double wall = sum.wall_ms / n;
  print_budget(stdout,
               "ingest, one pass (two pipeline runs); stages overlap, so their busy times "
               "exceed the wall time by the overlap",
               rows, wall - stages, wall, median(untraced), "(overlap, negative)");

  const char* util[4] = {"ingest.read_util", "ingest.hash_util", "ingest.encode_util",
                         "ingest.append_util"};
  for (int i = 0; i < 4; ++i)
    rep.detail(util[i], sum.pipeline_wall_ms > 0 ? sum.stage_ms[i] / sum.pipeline_wall_ms : 0,
               "ratio");
  const double probes = static_cast<double>(sum.probe_hits + sum.probe_misses);
  rep.detail("ingest.probe_hit_ratio", probes > 0 ? sum.probe_hits / probes : 0, "ratio");
  rep.detail("ingest.peak_queue_MB", sum.peak_queue_bytes / 1e6, "MB");
  rep.detail("ingest.append_batches", static_cast<double>(sum.append_batches) / n, "count");

  // From outside: the read side alone, then the store's group append alone.
  std::vector<double> read_mbps, put_mbps;
  for (int r = 0; r < 3; ++r) {
    u64 bytes = 0;
    const u64 t0 = now_ns();
    {
      Tracer::Scope span(tr, "io.read");
      for (const std::vector<File>* batch : {&s.first, &s.second})
        for (const File& f : *batch) {
          repro::io::DoubleBufferedReader rd(f.path);
          for (auto sp = rd.next(); !sp.empty(); sp = rd.next()) bytes += sp.size();
        }
    }
    read_mbps.push_back(bytes / 1e3 / ((now_ns() - t0) / 1e6));
    rep.ops.record(bytes == s.raw_bytes ? "" : "io.read: short read");

    const TempDir dir(s.dir->path() / ("put-" + std::to_string(r)));
    store::ChunkStore::Options so;
    so.dir = dir.path().string();
    store::ChunkStore cs(so);
    std::vector<store::SegmentStore::BatchEntry> entries;
    u64 put_bytes = 0;
    for (std::size_t i = 0; i < s.contents.size(); ++i) {
      const std::vector<float>& v = s.contents[i];
      entries.push_back({store::compress_key(v.data(), v.size() * sizeof(float), DType::F32,
                                             EbType::ABS, kEps),
                         &s.reference[i],
                         store::ChunkMeta{DType::F32, EbType::ABS, kEps, v.size() * sizeof(float)}});
      put_bytes += s.reference[i].size();
    }
    const u64 t1 = now_ns();
    std::size_t stored;
    {
      Tracer::Scope span(tr, "store.put_batch");
      stored = cs.put_batch(entries);
    }
    put_mbps.push_back(put_bytes / 1e3 / ((now_ns() - t1) / 1e6));
    rep.ops.record(stored == entries.size() ? "" : "store.put_batch: entries not stored");
  }
  rep.detail("io.read_MBps", median(read_mbps), "MB/s");
  rep.detail("store.put_batch_MBps", median(put_mbps), "MB/s");
  rep.add("trace.overhead_share", (wall - median(untraced)) / median(untraced), "ratio");

  // The shared layer probe on a sample of the files.
  std::vector<Field> sample;
  for (std::size_t i = 0; i < kProbeFiles; ++i)
    sample.emplace_back(s.contents[i].data(), s.contents[i].size());
  probe_layers(sample, 3, tr, rep);
  write_trace(cfg, tr);
}

}  // namespace

Report run_ingest(const Config& cfg) {
  Report rep;
  std::optional<IngestState> st;
  std::vector<double> setup_s;
  timed_setups(st, setup_s, [&] { return setup_ingest(cfg); });
  make_references(*st, rep.ops);
  if (cfg.trace) {
    trace_ingest(cfg, *st, rep);
    return rep;
  }
  std::vector<double> mbps;
  PassStats unused;
  run_for(cfg.seconds, 3, [&] {
    mbps.push_back(st->raw_bytes / 1e3 / ingest_pass(*st, rep.ops, nullptr, unused));
    return true;
  });
  std::fprintf(stderr, "ingest: %zu passes of %zu files\n", mbps.size(),
               st->first.size() + st->second.size());
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_MBps", pass_rate(mbps), "MB/s");
  rep.add("ratio", static_cast<double>(st->raw_bytes) / static_cast<double>(st->stream_bytes),
          "ratio");
  rep.add("peak_rss_MB", peak_rss_mb(), "MB");
  return rep;
}

}  // namespace pb
