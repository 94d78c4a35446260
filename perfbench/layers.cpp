// Codec operations shared by the workloads, and the per-layer probe.
#include "layers.hpp"

#include <omp.h>

#include <cmath>
#include <cstring>
#include <exception>
#include <map>

#include "core/chunked.hpp"
#include "fpmath/det_math.hpp"
#include "net/frame.hpp"
#include "staged.hpp"
#include "stats.hpp"
#include "store/store.hpp"

namespace pb {

using repro::EbType;
using repro::Field;
namespace pfpl = repro::pfpl;
namespace net = repro::net;
namespace store = repro::store;

namespace {

constexpr EbType kAllEbs[] = {EbType::ABS, EbType::REL, EbType::NOA};
constexpr const char* span_root_compress = "codec.compress";
constexpr const char* span_root_decompress = "codec.decompress";

volatile double g_sink = 0;  // keeps micro-benchmark results alive

/// Time every pfpl::encode_chunk call of every case, in microseconds.
std::vector<double> encode_chunk_us(const std::vector<Case>& cases) {
  std::vector<double> us;
  for (const Case& c : cases) {
    const pfpl::Header h = pfpl::plan_header(c.field, {kEps, c.eb, pfpl::Executor::Serial});
    Bytes out;
    for (std::size_t k = 0; k < h.chunk_count; ++k) {
      out.clear();
      const u64 t0 = now_ns();
      pfpl::encode_chunk(c.field, h, k, pfpl::Executor::Serial, out);
      us.push_back((now_ns() - t0) / 1e3);
    }
  }
  return us;
}

/// The staged decomposition of every case, `reps` times, into `tr`; each
/// staged result is checked against the Serial reference. Returns the
/// bytes compressed per bound type.
std::map<EbType, double> staged_runs(const std::vector<Case>& cases, int reps, Tracer& tr,
                                     StagedCounts& cnt, Outcome& ops) {
  std::map<EbType, double> eb_bytes;
  for (int r = 0; r < reps; ++r)
    for (const Case& c : cases) {
      std::string why;
      try {
        Bytes s;
        {
          Tracer::Scope root(tr, span_root_compress);
          s = staged_compress(c.field, {kEps, c.eb, pfpl::Executor::Serial}, tr, cnt);
        }
        std::vector<u8> back;
        {
          Tracer::Scope root(tr, span_root_decompress);
          back = staged_decompress(s, tr, cnt);
        }
        why = check_bytes("staged stream", s, c.ref_stream);
        if (why.empty()) why = check_bytes("staged decompressed", back, c.ref_recon);
      } catch (const std::exception& e) {
        why = e.what();
      }
      ops.record(why);
      eb_bytes[c.eb] += static_cast<double>(c.field.byte_size());
    }
  return eb_bytes;
}

double mbps(double bytes, double ms) { return ms > 0 ? bytes / 1e3 / ms : 0; }

/// Kernel throughputs, chunk shares and computed traffic from a staged run.
void report_kernels(const Tracer& tr, const StagedCounts& cnt,
                    const std::map<EbType, double>& eb_bytes, Report& rep) {
  auto self = [&](const char* n) { return tr.layer(n).self_ms; };
  const std::pair<EbType, std::pair<const char*, const char*>> quant[] = {
      {EbType::ABS, {kSpanQuantizeAbs, "core.quantize_abs_MBps"}},
      {EbType::REL, {kSpanQuantizeRel, "core.quantize_rel_MBps"}},
      {EbType::NOA, {kSpanQuantizeNoa, "core.quantize_noa_MBps"}}};
  for (const auto& [eb, names] : quant)
    rep.add(names.second, eb_bytes.count(eb) ? mbps(eb_bytes.at(eb), self(names.first)) : 0,
            "MB/s");
  const double in = static_cast<double>(cnt.in_bytes), out = static_cast<double>(cnt.out_bytes);
  rep.add("core.dequantize_MBps", mbps(out, self(kSpanDequantize)), "MB/s");
  rep.add("bits.delta_nb_MBps", mbps(in, self(kSpanDeltaNb)), "MB/s");
  rep.add("bits.delta_nb_dec_MBps", mbps(out, self(kSpanDeltaNbDec)), "MB/s");
  rep.add("bits.bitshuffle_MBps", mbps(in, self(kSpanBitshuffle)), "MB/s");
  rep.add("bits.zerobyte_enc_MBps", mbps(in, self(kSpanZerobyteEnc)), "MB/s");
  rep.add("bits.zerobyte_dec_MBps", mbps(out, self(kSpanZerobyteDec)), "MB/s");
  rep.add("core.raw_chunk_share",
          cnt.chunks ? static_cast<double>(cnt.raw_chunks) / static_cast<double>(cnt.chunks) : 0,
          "ratio");
  rep.add("core.computed_bytes_per_byte", in + out > 0 ? cnt.moved_bytes / (in + out) : 0,
          "computed_B/B");
}

void report_encode_chunk(const std::vector<Case>& cases, Report& rep) {
  const std::vector<double> us = encode_chunk_us(cases);
  const Tail t = highest_supported(us, 99);
  std::fprintf(stderr, "encode_chunk: n=%zu p50=%.2fus p%.1f=%.2fus\n", t.n,
               percentile(us, 50), t.p, t.value);
  rep.add("core.encode_chunk_p50_us", percentile(us, 50), "us");
  rep.add("core.encode_chunk_p99_us", t.value, "us");
}

/// Layer rows of a tracer: every span that is not a root, by self time per rep.
std::vector<BudgetRow> layer_rows(const Tracer& tr, int reps, double& roots_self,
                                  double& roots_total) {
  std::vector<BudgetRow> rows;
  roots_self = roots_total = 0;
  for (const Tracer::Layer& l : tr.layers()) {
    if (l.name == span_root_compress || l.name == span_root_decompress) {
      roots_self += l.self_ms / reps;
      roots_total += l.total_ms / reps;
    } else {
      rows.push_back({l.name, l.self_ms / reps});
    }
  }
  return rows;
}

/// ns per call of det_log and det_exp over the magnitudes of the REL inputs.
void report_fpmath(const std::vector<Case>& cases, Report& rep) {
  std::vector<double> xs;
  for (const Case& c : cases) {
    if (c.eb != EbType::REL) continue;
    const std::size_t n = c.field.count();
    for (std::size_t i = 0; i < n && xs.size() < (std::size_t{1} << 20); ++i) {
      const double v = c.field.dtype == repro::DType::F32
                           ? static_cast<const float*>(c.field.data)[i]
                           : static_cast<const double*>(c.field.data)[i];
      if (v != 0 && std::isfinite(v)) xs.push_back(std::fabs(v));
    }
  }
  if (xs.empty()) xs.push_back(1.0);
  std::vector<double> logs(xs.size());
  std::vector<double> log_ns, exp_ns;
  for (int r = 0; r < 5; ++r) {
    u64 t0 = now_ns();
    for (std::size_t i = 0; i < xs.size(); ++i) logs[i] = repro::fpmath::det_log(xs[i]);
    u64 t1 = now_ns();
    double acc = 0;
    for (double y : logs) acc += repro::fpmath::det_exp(y);
    u64 t2 = now_ns();
    g_sink = g_sink + acc;
    log_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(xs.size()));
    exp_ns.push_back(static_cast<double>(t2 - t1) / static_cast<double>(xs.size()));
  }
  rep.add("fpmath.det_log_ns", median(log_ns), "ns");
  rep.add("fpmath.det_exp_ns", median(exp_ns), "ns");
}

/// The sequential steps of pfpl::compress with the OpenMP executor, each
/// timed alone over every case, `reps` times: plan_header, and
/// assemble_stream over chunk sizes and payloads that encode_chunk made once,
/// untimed. Every assembled stream must equal the Serial reference. Then
/// pfpl::compress itself, OpenMP and Serial. Medians over the reps of the
/// per-pass sums, in ms.
void time_chunk_engine(const std::vector<Case>& cases, int reps, LayerTimes& t,
                       double& serial_ms, Outcome& ops) {
  struct Encoded {
    pfpl::Header h;
    std::vector<Bytes> payloads;
    std::vector<repro::u32> sizes;
  };
  std::vector<Encoded> enc;
  for (const Case& c : cases) {
    Encoded e;
    e.h = pfpl::plan_header(c.field, {kEps, c.eb, pfpl::Executor::OpenMP});
    e.payloads.resize(e.h.chunk_count);
    e.sizes.assign(e.h.chunk_count, 0);
    for (std::size_t k = 0; k < e.h.chunk_count; ++k)
      e.sizes[k] = pfpl::encode_chunk(c.field, e.h, k, pfpl::Executor::OpenMP, e.payloads[k]);
    enc.push_back(std::move(e));
  }
  // The first OpenMP call starts the thread team; keep it out of the timing.
  g_sink = g_sink + static_cast<double>(
                        pfpl::compress(cases.front().field,
                                       {kEps, cases.front().eb, pfpl::Executor::OpenMP})
                            .size());
  std::vector<double> plan, assemble, omp_c, serial_c;
  for (int r = 0; r < reps; ++r) {
    double p = 0, a = 0, oc = 0, sc = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const pfpl::Params params{kEps, c.eb, pfpl::Executor::OpenMP};
      std::string why;
      try {
        u64 t0 = now_ns();
        g_sink = g_sink + static_cast<double>(pfpl::plan_header(c.field, params).chunk_count);
        u64 t1 = now_ns();
        const Bytes out = pfpl::assemble_stream(enc[i].h, enc[i].sizes, enc[i].payloads,
                                                params.exec);
        u64 t2 = now_ns();
        p += (t1 - t0) / 1e6;
        a += (t2 - t1) / 1e6;
        why = check_bytes("assembled stream", out, c.ref_stream);
        t0 = now_ns();
        const Bytes so = pfpl::compress(c.field, params);
        t1 = now_ns();
        const Bytes ss = pfpl::compress(c.field, {kEps, c.eb, pfpl::Executor::Serial});
        t2 = now_ns();
        oc += (t1 - t0) / 1e6;
        sc += (t2 - t1) / 1e6;
        if (why.empty()) why = check_bytes("OpenMP stream", so, c.ref_stream);
        if (why.empty()) why = check_bytes("Serial stream", ss, c.ref_stream);
      } catch (const std::exception& e) {
        why = e.what();
      }
      ops.record(why);
    }
    plan.push_back(p);
    assemble.push_back(a);
    omp_c.push_back(oc);
    serial_c.push_back(sc);
  }
  t.plan_ms = median(plan);
  t.assemble_ms = median(assemble);
  t.omp_compress_ms = median(omp_c);
  serial_ms = median(serial_c);
}

/// Per-call times of the store and frame calls a request crosses in pfpld,
/// on the cases' raw bytes and streams: compress_key, get (one miss before
/// the put and one hit after it), put into an in-memory ChunkStore, and
/// encode_frame / FrameParser of the request frame. `reps` rounds; every
/// hit and every parsed frame is checked.
void time_store_and_frames(const std::vector<Case>& cases, int reps, Report& rep) {
  std::vector<double> key_us, get_us, put_us, enc_us, parse_us;
  for (int r = 0; r < reps; ++r) {
    store::ChunkStore::Options so;
    so.cache.byte_budget = std::size_t{1} << 30;
    store::ChunkStore cs(so);
    net::FrameParser parser;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const std::size_t raw_n = c.field.byte_size();
      std::string why;
      try {
        u64 t0 = now_ns();
        const repro::common::Hash128 key =
            store::compress_key(c.field.data, raw_n, c.field.dtype, c.eb, kEps);
        u64 t1 = now_ns();
        key_us.push_back((t1 - t0) / 1e3);
        Bytes out;
        t0 = now_ns();
        const bool early_hit = cs.get(key, out);
        t1 = now_ns();
        cs.put(key, c.ref_stream, store::ChunkMeta{c.field.dtype, c.eb, kEps, raw_n});
        const u64 t2 = now_ns();
        const bool hit = cs.get(key, out);
        const u64 t3 = now_ns();
        get_us.push_back((t1 - t0) / 1e3);
        get_us.push_back((t3 - t2) / 1e3);
        put_us.push_back((t2 - t1) / 1e3);
        if (early_hit || !hit) why = "store: unexpected hit or miss";
        if (why.empty()) why = check_bytes("stored stream", out, c.ref_stream);

        net::FrameHeader h;
        h.op = static_cast<u8>(net::Op::Compress);
        h.dtype = static_cast<u8>(c.field.dtype);
        h.eps = kEps;
        h.request_id = i + 1;
        t0 = now_ns();
        const Bytes wire = net::encode_frame(h, c.field.data, raw_n);
        t1 = now_ns();
        net::Frame f;
        parser.feed(wire.data(), wire.size());
        const bool ready = parser.next(f) == net::FrameParser::Result::Ready;
        const u64 t4 = now_ns();
        enc_us.push_back((t1 - t0) / 1e3);
        parse_us.push_back((t4 - t1) / 1e3);
        if (why.empty() && !ready) why = "in-process frame did not parse: " + parser.error();
        if (why.empty() && (f.payload.size() != raw_n ||
                            std::memcmp(f.payload.data(), c.field.data, raw_n) != 0))
          why = "parsed frame payload differs from the request";
      } catch (const std::exception& e) {
        why = e.what();
      }
      rep.ops.record(why);
    }
  }
  rep.add("store.key_us", mean(key_us), "us");
  rep.add("store.get_us", mean(get_us), "us");
  rep.add("store.put_us", mean(put_us), "us");
  rep.add("net.frame_encode_us", mean(enc_us), "us");
  rep.add("net.frame_parse_us", mean(parse_us), "us");
}

}  // namespace

void make_case_references(std::vector<Case>& cases, Outcome& ops) {
  for (Case& c : cases) {
    std::string why;
    try {
      c.ref_stream = pfpl::compress(c.field, {kEps, c.eb, pfpl::Executor::Serial});
      c.ref_recon = pfpl::decompress(c.ref_stream);
      why = check_bound(c.field, c.ref_recon, c.eb, kEps);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ops.record(why);
  }
}

void warm_up(const std::vector<Case>& cases, pfpl::Executor exec) {
  for (const Case& c : cases) {
    const Bytes s = pfpl::compress(c.field, {kEps, c.eb, exec});
    g_sink = g_sink + static_cast<double>(pfpl::decompress(s, exec).size());
  }
}

PassTimes codec_pass(const std::vector<Case>& cases, pfpl::Executor exec, Outcome& ops) {
  PassTimes p;
  for (const Case& c : cases) {
    std::string why;
    try {
      const u64 t0 = now_ns();
      const Bytes s = pfpl::compress(c.field, {kEps, c.eb, exec});
      const u64 t1 = now_ns();
      const std::vector<u8> back = pfpl::decompress(s, exec);
      const u64 t2 = now_ns();
      p.compress_s += (t1 - t0) / 1e9;
      p.decompress_s += (t2 - t1) / 1e9;
      p.bytes += c.field.byte_size();
      why = check_bytes("stream", s, c.ref_stream);
      if (why.empty()) why = check_bound(c.field, back, c.eb, kEps);
      if (why.empty()) why = check_bytes("decompressed", back, c.ref_recon);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ops.record(why);
  }
  return p;
}

double ratio_of(const std::vector<Case>& cases) {
  double raw = 0, comp = 0;
  for (const Case& c : cases) {
    raw += static_cast<double>(c.field.byte_size());
    comp += static_cast<double>(c.ref_stream.size());
  }
  return comp > 0 ? raw / comp : 0;
}

LayerTimes probe_layers(const std::vector<Field>& fields, int reps, Tracer& tr, Report& rep) {
  omp_set_num_threads(static_cast<int>(cpu_count()));
  std::vector<Case> cases, abs_cases;
  for (const Field& f : fields)
    for (EbType eb : kAllEbs) cases.push_back({f, eb, {}, {}});
  make_case_references(cases, rep.ops);
  for (const Case& c : cases)
    if (c.eb == EbType::ABS) abs_cases.push_back(c);

  LayerTimes t;
  std::vector<double> untraced;
  for (int r = 0; r < reps; ++r) {
    const PassTimes p = codec_pass(cases, pfpl::Executor::Serial, rep.ops);
    untraced.push_back((p.compress_s + p.decompress_s) * 1e3);
  }
  t.untraced_ms = median(untraced);

  Tracer st;
  StagedCounts cnt;
  const auto eb_bytes = staged_runs(cases, reps, st, cnt, rep.ops);
  report_kernels(st, cnt, eb_bytes, rep);
  double roots_self;
  const std::vector<BudgetRow> rows = layer_rows(st, reps, roots_self, t.staged_ms);
  rep.add("core.unattributed_share", t.staged_ms > 0 ? roots_self / t.staged_ms : 0, "ratio");
  print_budget(stdout,
               "layer sample (" + std::to_string(fields.size()) +
                   " inputs x ABS/REL/NOA), one staged Serial compress + decompress",
               rows, roots_self, t.staged_ms, t.untraced_ms);
  tr.append(st);

  report_fpmath(cases, rep);
  report_encode_chunk(cases, rep);

  double serial_ms = 0;
  time_chunk_engine(abs_cases, std::max(reps, 3), t, serial_ms, rep.ops);
  rep.add("core.plan_ms", t.plan_ms, "ms");
  rep.add("core.assemble_ms", t.assemble_ms, "ms");
  rep.add("omp.serial_share",
          t.omp_compress_ms > 0 ? (t.plan_ms + t.assemble_ms) / t.omp_compress_ms : 0, "ratio");
  rep.add("omp.speedup", t.omp_compress_ms > 0 ? serial_ms / t.omp_compress_ms : 0, "x");
  std::fprintf(stderr, "chunk engine on the ABS sample: plan %.3f ms, assemble %.3f ms, "
               "OpenMP compress %.3f ms, Serial compress %.3f ms (%d threads)\n",
               t.plan_ms, t.assemble_ms, t.omp_compress_ms, serial_ms, omp_get_max_threads());

  time_store_and_frames(abs_cases, std::max(reps, 3), rep);
  return t;
}

}  // namespace pb
