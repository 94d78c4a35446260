// Workload served: an in-process pfpld (net::Server) on loopback with an
// in-memory ChunkStore, driven by a closed loop of net::Client connections.
//
// pfpld's callers (the CLI, ClusterClient) each wait for their reply, so a
// closed loop of one connection per core matches them. Every pass sends the
// same fixed, seeded mix of small (64 KiB, 4 chunks) and large (4 MiB, 256
// chunks) compress and decompress requests; a fixed share of the compress
// payloads repeats an earlier one, so the store answers those. Transport,
// queue and store dominate the small requests and kernels dominate the large
// ones. A pass runs in two phases with every client joined between them, so
// every repeat comes after its original has been answered; the store's cache
// is cleared between passes, so every pass has the same hits.
//
// The shares of the mix are assumptions, not measurements: the repository
// holds no record of pfpld's traffic. README.md gives the reason for each.
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/pfpl.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "stats.hpp"
#include "store/store.hpp"
#include "trace.hpp"

namespace pb {
namespace {

using repro::DType;
using repro::EbType;
using repro::Field;
using repro::u32;
namespace pfpl = repro::pfpl;
namespace net = repro::net;
namespace store = repro::store;

constexpr std::size_t kSmallValues = 16384;        // 64 KiB of f32
constexpr std::size_t kLargeValues = 1u << 20;     // 4 MiB of f32
constexpr std::size_t kSmall = 240;                // distinct small payloads
constexpr std::size_t kLarge = 6;                  // distinct large payloads
constexpr std::size_t kSmallDecompress = 80;       // small DECOMPRESS per pass
constexpr std::size_t kLargeDecompress = 4;        // large DECOMPRESS per pass
constexpr std::size_t kSmallRepeats = 80;          // repeated small COMPRESS per pass
constexpr std::size_t kLargeRepeats = 2;           // repeated large COMPRESS per pass
constexpr std::size_t kProbeSmall = 16;            // small payloads in the layer probe
constexpr std::size_t kProbeLarge = 2;             // large payloads in the layer probe

struct Req {
  bool compress = true;
  bool large = false;
  u32 idx = 0;  ///< payload index within its size class
};

/// The fixed request mix of one pass, ordered by the seed, and where its
/// second phase starts.
struct Schedule {
  std::vector<Req> reqs;
  std::size_t phase2 = 0;
};

/// Phase 1: every distinct compress payload and half of the decompress
/// requests, shuffled. Phase 2: the repeats of phase-1 payloads and the other
/// decompress requests, shuffled.
Schedule make_schedule(u64 seed) {
  u64 state = mix(seed, 0x5E);
  auto rnd = [&](std::size_t n) {
    state = mix(state, 1);
    return static_cast<std::size_t>(state % n);
  };
  auto shuffle = [&](std::vector<Req>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rnd(i)]);
  };
  std::vector<Req> a, b;
  for (u32 i = 0; i < kSmall; ++i) a.push_back({true, false, i});
  for (u32 i = 0; i < kLarge; ++i) a.push_back({true, true, i});
  for (u32 i = 0; i < kSmallDecompress; ++i) (i % 2 ? a : b).push_back({false, false, i});
  for (u32 i = 0; i < kLargeDecompress; ++i) (i % 2 ? a : b).push_back({false, true, i});
  shuffle(a);
  for (std::size_t i = 0; i < kSmallRepeats; ++i)
    b.push_back({true, false, static_cast<u32>(rnd(kSmall))});
  for (std::size_t i = 0; i < kLargeRepeats; ++i)
    b.push_back({true, true, static_cast<u32>(rnd(kLarge))});
  shuffle(b);
  Schedule s{std::move(a), 0};
  s.phase2 = s.reqs.size();
  s.reqs.insert(s.reqs.end(), b.begin(), b.end());
  return s;
}

/// A payload, its Serial reference stream and (for payloads that are also
/// sent as DECOMPRESS requests) the reference decompressed bytes.
struct Payload {
  std::vector<float> values;
  Bytes stream;
  std::vector<u8> recon;
  Field field() const { return Field(values.data(), values.size()); }
};

/// An in-process server running its event loop on its own thread.
class RunningServer {
 public:
  RunningServer(const net::Server::Options& o)
      : server_(o), loop_([this] { server_.run(); }) {}
  ~RunningServer() {
    server_.request_stop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  net::Server& server() { return server_; }

 private:
  net::Server server_;
  std::thread loop_;
};

store::ChunkStore::Options store_options() {
  store::ChunkStore::Options o;
  // Large enough that no entry of one pass is evicted within the pass.
  o.cache.byte_budget = std::size_t{1} << 30;
  return o;
}

struct ServedState {
  std::vector<Payload> small, large;
  Schedule schedule;
  std::shared_ptr<store::ChunkStore> store;
  std::unique_ptr<RunningServer> server;
  std::vector<net::Client> clients;  // declared after server: closed first
};

const Payload& payload_of(const ServedState& s, const Req& r) {
  return r.large ? s.large[r.idx] : s.small[r.idx];
}

std::string check_response(const Payload& p, const Req& r, const std::vector<u8>& resp) {
  if (r.compress) return check_bytes("COMPRESS response", resp, p.stream);
  std::string why = check_bound(p.field(), resp, EbType::ABS, kEps);
  return why.empty() ? check_bytes("DECOMPRESS response", resp, p.recon) : why;
}

/// One request through `client`; returns the response bytes.
std::vector<u8> send(net::Client& client, const Payload& p, const Req& r) {
  if (r.compress)
    return client.compress(p.values.data(), p.values.size() * sizeof(float), DType::F32,
                           EbType::ABS, kEps);
  return client.decompress(p.stream);
}

struct PassResult {
  std::vector<double> small_ms, large_ms;
  double raw_bytes = 0;
  double wall_s = 0;
};

/// One pass of the schedule over all clients (closed loop: each client sends
/// its next request when the previous one is answered), phase 1 then phase 2
/// with every client joined between them. With `tracers`, each client
/// records a span per request into its own tracer. Besides the requests, the
/// pass's store hits are checked as one more operation: every repeat must be
/// answered by the store.
PassResult served_pass(ServedState& s, Outcome& ops, std::vector<Tracer>* tracers) {
  s.store->cache().clear();
  const u64 hits0 = s.server->server().stats().store_hits;
  const std::size_t nc = s.clients.size();
  std::vector<PassResult> per(nc);
  std::vector<Outcome> outs(nc);
  const u64 t0 = now_ns();
  const std::size_t bounds[3] = {0, s.schedule.phase2, s.schedule.reqs.size()};
  for (int phase = 0; phase < 2; ++phase) {
    std::atomic<std::size_t> next{bounds[phase]};
    const std::size_t end = bounds[phase + 1];
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nc; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t k; (k = next.fetch_add(1)) < end;) {
          const Req& r = s.schedule.reqs[k];
          const Payload& p = payload_of(s, r);
          std::string why;
          try {
            const u64 a = now_ns();
            const std::vector<u8> resp = send(s.clients[c], p, r);
            const u64 b = now_ns();
            if (tracers)
              (*tracers)[c].record(r.large ? "net.request_large" : "net.request_small", a, b,
                                   s.clients[c].last_request_id());
            (r.large ? per[c].large_ms : per[c].small_ms).push_back((b - a) / 1e6);
            per[c].raw_bytes += static_cast<double>(p.values.size() * sizeof(float));
            why = check_response(p, r, resp);
          } catch (const std::exception& e) {
            why = e.what();
          }
          outs[c].record(why);
        }
      });
    for (std::thread& t : threads) t.join();
  }
  PassResult out;
  out.wall_s = (now_ns() - t0) / 1e9;
  for (std::size_t c = 0; c < nc; ++c) {
    ops.merge(outs[c]);
    out.small_ms.insert(out.small_ms.end(), per[c].small_ms.begin(), per[c].small_ms.end());
    out.large_ms.insert(out.large_ms.end(), per[c].large_ms.begin(), per[c].large_ms.end());
    out.raw_bytes += per[c].raw_bytes;
  }
  const u64 hits = s.server->server().stats().store_hits - hits0;
  ops.record(hits == kSmallRepeats + kLargeRepeats
                 ? ""
                 : "store hits in a pass: " + std::to_string(hits) + ", expected " +
                       std::to_string(kSmallRepeats + kLargeRepeats));
  return out;
}

/// Inputs (the payloads, and the Serial streams of those also sent as
/// DECOMPRESS requests), the server and its clients, and a warm-up of one
/// small COMPRESS per client (connection, pool, store).
ServedState setup_served(u64 seed) {
  ServedState s;
  auto fill = [](std::vector<Payload>& dst, std::vector<std::vector<float>> arrays,
                 std::size_t decompressed) {
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      Payload p;
      p.values = std::move(arrays[i]);
      if (i < decompressed)
        p.stream = pfpl::compress(p.field(), {kEps, EbType::ABS, pfpl::Executor::Serial});
      dst.push_back(std::move(p));
    }
  };
  fill(s.small, f32_arrays(mix(seed, 0x51), kSmall, kSmallValues), kSmallDecompress);
  fill(s.large, f32_arrays(mix(seed, 0x1A), kLarge, kLargeValues), kLargeDecompress);
  s.schedule = make_schedule(seed);

  s.store = std::make_shared<store::ChunkStore>(store_options());
  net::Server::Options so;
  so.port = 0;
  // One core is left to the event loop and the clients' framing.
  so.threads = std::max(1u, cpu_count() - 1);
  so.store = s.store;
  s.server = std::make_unique<RunningServer>(so);
  net::Client::Options co;
  co.port = s.server->server().port();
  co.retry = false;  // a transport error is a failed operation, not a retry
  for (unsigned i = 0; i < cpu_count(); ++i) s.clients.emplace_back(co);
  for (std::size_t c = 0; c < s.clients.size(); ++c) {
    const Payload& p = s.small[c % kSmall];
    s.clients[c].compress(p.values.data(), p.values.size() * sizeof(float), DType::F32,
                          EbType::ABS, kEps);
  }
  return s;
}

/// The Serial references the checks compare against: every payload's stream
/// and the decompressed bytes of those sent as DECOMPRESS requests, checked
/// against the bound. Then one untimed pass of the mix at full size. Both run
/// once, after the timed set-ups and before any timing, and are not part of
/// setup_s.
void make_references(ServedState& s, Outcome& ops) {
  const u64 t0 = now_ns();
  for (std::vector<Payload>* ps : {&s.small, &s.large}) {
    const std::size_t decompressed = ps == &s.small ? kSmallDecompress : kLargeDecompress;
    for (std::size_t i = 0; i < ps->size(); ++i) {
      Payload& p = (*ps)[i];
      std::string why;
      try {
        if (p.stream.empty())
          p.stream = pfpl::compress(p.field(), {kEps, EbType::ABS, pfpl::Executor::Serial});
        if (i < decompressed) {
          p.recon = pfpl::decompress(p.stream);
          why = check_bound(p.field(), p.recon, EbType::ABS, kEps);
        }
      } catch (const std::exception& e) {
        why = e.what();
      }
      ops.record(why);
    }
  }
  const u64 t1 = now_ns();
  served_pass(s, ops, nullptr);
  std::fprintf(stderr,
               "Serial references: %.3f s, one untimed pass: %.3f s (not in setup_s)\n",
               (t1 - t0) / 1e9, (now_ns() - t1) / 1e9);
}

// ---------------------------------------------------------------------------
// Traced run: the same payloads through the server's steps in-process.

/// In-process time of one size class's requests, summed by layer (ms), and
/// the number of requests.
struct InProcess {
  double frame_encode = 0, frame_parse = 0, key = 0, get = 0, compute = 0, put = 0;
  std::size_t n = 0;
  double total() const { return frame_encode + frame_parse + key + get + compute + put; }
};

/// Replays one pass of the schedule on this thread through the layers a
/// request crosses in pfpld: frame encode/parse of request and response,
/// store key, store get, compute (on a miss) and store put. Every computed
/// result is checked like a server response.
void in_process(const ServedState& s, Tracer& tr, InProcess& small, InProcess& large,
                Outcome& ops) {
  store::ChunkStore cs(store_options());
  net::FrameParser parser;
  for (std::size_t k = 0; k < s.schedule.reqs.size(); ++k) {
    const Req& r = s.schedule.reqs[k];
    const Payload& p = payload_of(s, r);
    InProcess& acc = r.large ? large : small;
    ++acc.n;
    Tracer::Scope root(tr, "inproc.request", k + 1);
    auto timed = [&](const char* name, double& sum, auto&& fn) {
      const u64 a = now_ns();
      fn();
      const u64 b = now_ns();
      tr.record(name, a, b, k + 1);
      sum += (b - a) / 1e6;
    };
    auto frame_roundtrip = [&](const void* data, std::size_t n) {
      net::FrameHeader h;
      h.op = static_cast<u8>(r.compress ? net::Op::Compress : net::Op::Decompress);
      h.dtype = static_cast<u8>(DType::F32);
      h.eps = kEps;
      h.request_id = k + 1;
      Bytes wire;
      timed("net.frame_encode", acc.frame_encode, [&] { wire = net::encode_frame(h, data, n); });
      net::Frame f;
      timed("net.frame_parse", acc.frame_parse, [&] {
        parser.feed(wire.data(), wire.size());
        if (parser.next(f) != net::FrameParser::Result::Ready)
          throw net::NetError("in-process frame did not parse: " + parser.error());
      });
    };
    std::string why;
    try {
      const std::size_t raw_n = p.values.size() * sizeof(float);
      if (r.compress)
        frame_roundtrip(p.values.data(), raw_n);
      else
        frame_roundtrip(p.stream.data(), p.stream.size());
      repro::common::Hash128 key;
      timed("store.key", acc.key, [&] {
        key = r.compress ? store::compress_key(p.values.data(), raw_n, DType::F32, EbType::ABS,
                                               kEps)
                         : store::decompress_key(p.stream.data(), p.stream.size());
      });
      Bytes out;
      bool hit = false;
      timed("store.get", acc.get, [&] { hit = cs.get(key, out); });
      if (!hit) {
        timed("core.compute", acc.compute, [&] {
          out = r.compress ? pfpl::compress(p.field(), {kEps, EbType::ABS, pfpl::Executor::Serial})
                           : pfpl::decompress(p.stream);
        });
        timed("store.put", acc.put, [&] {
          cs.put(key, out, store::ChunkMeta{DType::F32, EbType::ABS, kEps, raw_n});
        });
      }
      frame_roundtrip(out.data(), out.size());
      why = check_response(p, r, out);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ops.record(why);
  }
}

void trace_served(const Config& cfg, ServedState& s, Report& rep) {
  // Untraced and traced load phases, half the run each.
  std::vector<double> untraced_small, untraced_large;
  run_for(cfg.seconds / 2, 3, [&] {
    const PassResult p = served_pass(s, rep.ops, nullptr);
    untraced_small.insert(untraced_small.end(), p.small_ms.begin(), p.small_ms.end());
    untraced_large.insert(untraced_large.end(), p.large_ms.begin(), p.large_ms.end());
    return true;
  });
  std::vector<Tracer> tracers(s.clients.size());
  std::vector<double> traced_small, traced_large;
  run_for(cfg.seconds / 2, 3, [&] {
    const PassResult p = served_pass(s, rep.ops, &tracers);
    traced_small.insert(traced_small.end(), p.small_ms.begin(), p.small_ms.end());
    traced_large.insert(traced_large.end(), p.large_ms.begin(), p.large_ms.end());
    return true;
  });
  const net::Server::Stats st = s.server->server().stats();

  Tracer tr;
  for (const Tracer& t : tracers) tr.append(t);
  InProcess small, large;
  in_process(s, tr, small, large, rep.ops);
  auto per = [](double ms, const InProcess& c) { return c.n ? ms / c.n : 0; };

  const double lat_small = mean(untraced_small), lat_large = mean(untraced_large);
  for (int large_class = 0; large_class < 2; ++large_class) {
    const InProcess& c = large_class ? large : small;
    const std::vector<BudgetRow> rows = {
        {"net.frame_encode (req+resp)", per(c.frame_encode, c)},
        {"net.frame_parse (req+resp)", per(c.frame_parse, c)},
        {"store.key", per(c.key, c)},
        {"store.get", per(c.get, c)},
        {"core.compute", per(c.compute, c)},
        {"store.put", per(c.put, c)}};
    const double traced = mean(large_class ? traced_large : traced_small);
    print_budget(stdout,
                 std::string("served, mean ") + (large_class ? "large" : "small") +
                     " request (client latency; in-process layer times; the remainder is "
                     "transport, queueing and copies)",
                 rows, traced - per(c.total(), c), traced, large_class ? lat_large : lat_small);
  }

  const double us = 1e3;
  rep.detail("core.compute_small_us", per(small.compute, small) * us, "us");
  rep.detail("core.compute_large_ms", per(large.compute, large), "ms");
  const double lookups = static_cast<double>(st.store_hits + st.store_misses);
  rep.detail("store.hit_ratio", lookups > 0 ? st.store_hits / lookups : 0, "ratio");
  rep.detail("net.peak_inflight_MB", st.peak_inflight_bytes / 1e6, "MB");
  rep.detail("net.errors", static_cast<double>(st.errors), "count");
  const double overhead = lat_small - per(small.total(), small);
  rep.detail("net.overhead_small_ms", overhead, "ms");
  rep.detail("net.unattributed_share", lat_small > 0 ? overhead / lat_small : 0, "ratio");
  rep.detail("net.large_compute_share",
             lat_large > 0 ? per(large.compute, large) / lat_large : 0, "ratio");

  // The shared layer probe on a sample of the payloads of both size classes.
  std::vector<Field> sample;
  for (std::size_t i = 0; i < kProbeSmall; ++i) sample.push_back(s.small[i].field());
  for (std::size_t i = 0; i < kProbeLarge; ++i) sample.push_back(s.large[i].field());
  probe_layers(sample, 3, tr, rep);
  auto mean_of_all = [](std::vector<double> a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return mean(a);
  };
  const double un = mean_of_all(untraced_small, untraced_large);
  const double traced_mean = mean_of_all(traced_small, traced_large);
  rep.add("trace.overhead_share", un > 0 ? (traced_mean - un) / un : 0, "ratio");
  write_trace(cfg, tr);
}

}  // namespace

Report run_served(const Config& cfg) {
  Report rep;
  std::optional<ServedState> st;
  std::vector<double> setup_s;
  timed_setups(st, setup_s, [&] { return setup_served(cfg.seed); });
  make_references(*st, rep.ops);
  if (cfg.trace) {
    trace_served(cfg, *st, rep);
    return rep;
  }
  std::vector<double> small_ms, large_ms, mbps;
  run_for(cfg.seconds, 3, [&] {
    const PassResult p = served_pass(*st, rep.ops, nullptr);
    small_ms.insert(small_ms.end(), p.small_ms.begin(), p.small_ms.end());
    large_ms.insert(large_ms.end(), p.large_ms.begin(), p.large_ms.end());
    mbps.push_back(p.raw_bytes / 1e6 / p.wall_s);
    return true;
  });
  const Tail small_tail = highest_supported(small_ms, 99);
  std::fprintf(stderr,
               "served: %zu passes, %zu clients; small n=%zu (p%.1f supported), large n=%zu\n",
               mbps.size(), st->clients.size(), small_tail.n, small_tail.p, large_ms.size());
  if (small_tail.p < 99)
    std::fprintf(stderr, "served: small_p99_ms is p%.1f, too few samples for p99\n",
                 small_tail.p);
  double raw = 0, streams = 0;
  for (const std::vector<Payload>* ps : {&st->small, &st->large})
    for (const Payload& p : *ps) {
      raw += static_cast<double>(p.values.size() * sizeof(float));
      streams += static_cast<double>(p.stream.size());
    }
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_MBps", pass_rate(mbps), "MB/s");
  rep.add("ratio", raw / streams, "ratio");
  rep.add("peak_rss_MB", peak_rss_mb(), "MB");
  rep.detail("small_p50_ms", percentile(small_ms, 50), "ms");
  rep.detail("small_p99_ms", small_tail.value, "ms");
  rep.detail("large_p50_ms", percentile(large_ms, 50), "ms");
  return rep;
}

}  // namespace pb
