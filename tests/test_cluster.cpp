// Tests for the sharded-pfpld cluster layer (src/cluster): consistent-hash
// ring properties (distribution, minimal remap on membership change,
// deterministic routing across serialization), PFSM wire robustness, the
// SHARDMAP/HEALTH verbs, and ClusterClient routing — byte-identity against
// the local compressor, replica failover on node stop, and stale-map
// recovery via WrongShard + map refresh.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/shard_map.hpp"
#include "common/hash.hpp"
#include "core/pfpl.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "store/store.hpp"

using namespace repro;

namespace {

/// "n<i>". Built with append: GCC 12 reports `"n" + std::to_string(i)` as
/// an overlapping memcpy (-Wrestrict, GCC bug 105651).
std::string node_id(unsigned i) { return std::string("n").append(std::to_string(i)); }

std::vector<cluster::NodeInfo> make_nodes(unsigned n, u16 base_port = 19000) {
  std::vector<cluster::NodeInfo> nodes;
  for (unsigned i = 0; i < n; ++i)
    nodes.push_back({node_id(i), "127.0.0.1",
                     static_cast<u16>(base_port + i)});
  return nodes;
}

common::Hash128 key_of(unsigned i) { return common::hash128(&i, sizeof i); }

std::vector<float> make_f32(std::size_t n, unsigned seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(std::sin(i * 0.01 + seed) * 50.0 + seed);
  return v;
}

/// An in-process cluster of N pfpld nodes sharing one shard map.
struct TestCluster {
  explicit TestCluster(unsigned n, u16 replicas = 2) {
    std::vector<cluster::NodeInfo> nodes;
    for (unsigned i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<net::Server>(net::Server::Options{}));
      nodes.push_back({node_id(i), "127.0.0.1",
                       servers.back()->port()});
    }
    map = cluster::ShardMap("test", std::move(nodes),
                            cluster::ShardMap::kDefaultVnodes, replicas);
    for (unsigned i = 0; i < n; ++i) {
      servers[i]->set_cluster(map, node_id(i));
      threads.emplace_back([srv = servers[i].get()] { srv->run(); });
    }
  }
  ~TestCluster() {
    for (auto& s : servers) s->request_stop();
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }
  void stop(unsigned i) {
    servers[i]->request_stop();
    threads[i].join();
  }
  std::vector<std::unique_ptr<net::Server>> servers;
  std::vector<std::thread> threads;
  cluster::ShardMap map;
};

// ---------------------------------------------------------------------------
// Ring properties

TEST(ShardMap, DistributionWithin15PercentOfUniform) {
  // 5 nodes x 128 vnodes: every node's share of 50k uniformly-hashed keys
  // must land within ±15% of 1/N. Fully deterministic (fixed ids, fixed
  // hash), so this pins the ring construction, not luck.
  const unsigned kNodes = 5, kKeys = 50000;
  cluster::ShardMap m("t", make_nodes(kNodes), 128, 2);
  std::map<u32, u64> count;
  for (unsigned i = 0; i < kKeys; ++i) count[m.primary(key_of(i))]++;
  EXPECT_EQ(count.size(), kNodes) << "some node owns no keys at all";
  for (const auto& [node, c] : count) {
    const double share = static_cast<double>(c) / kKeys;
    EXPECT_NEAR(share * kNodes, 1.0, 0.15)
        << "node " << node << " share " << share;
  }
}

TEST(ShardMap, JoinMovesAtMostTwoOverNKeys) {
  const unsigned kKeys = 20000;
  cluster::ShardMap before("t", make_nodes(5), 128, 2);
  cluster::ShardMap after = before.with_node_added({"n5", "127.0.0.1", 19005});
  unsigned moved = 0;
  for (unsigned i = 0; i < kKeys; ++i) {
    const common::Hash128 k = key_of(i);
    const std::string& p0 = before.nodes()[before.primary(k)].id;
    const std::string& p1 = after.nodes()[after.primary(k)].id;
    if (p0 != p1) {
      ++moved;
      // Consistent hashing only ever moves keys TO the joining node.
      EXPECT_EQ(p1, "n5");
    }
  }
  // Ideal is 1/(N+1) ≈ 16.7%; 2/N = 40% is the generous stability bound the
  // paper-level guarantee cares about (vs ~100% for modulo hashing).
  EXPECT_LE(static_cast<double>(moved) / kKeys,
            2.0 / static_cast<double>(before.size()));
  EXPECT_GT(moved, 0u) << "the new node took no keyspace at all";
}

TEST(ShardMap, LeaveMovesOnlyTheLeaversKeys) {
  const unsigned kKeys = 20000;
  cluster::ShardMap before("t", make_nodes(5), 128, 2);
  cluster::ShardMap after = before.with_node_removed("n2");
  unsigned moved = 0;
  for (unsigned i = 0; i < kKeys; ++i) {
    const common::Hash128 k = key_of(i);
    const std::string& p0 = before.nodes()[before.primary(k)].id;
    const std::string& p1 = after.nodes()[after.primary(k)].id;
    if (p0 != p1) {
      ++moved;
      // Only keys the leaver owned may move; everyone else keeps theirs.
      EXPECT_EQ(p0, "n2");
    }
  }
  EXPECT_LE(static_cast<double>(moved) / kKeys,
            2.0 / static_cast<double>(before.size()));
  EXPECT_GT(moved, 0u);
}

TEST(ShardMap, ReplicaListIsDistinctAndPrimaryFirst) {
  cluster::ShardMap m("t", make_nodes(4), 64, 3);
  for (unsigned i = 0; i < 500; ++i) {
    const common::Hash128 k = key_of(i);
    const std::vector<u32> r = m.route(k);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], m.primary(k));
    std::set<u32> distinct(r.begin(), r.end());
    EXPECT_EQ(distinct.size(), r.size());
    for (u32 idx : r) EXPECT_TRUE(m.owns(k, static_cast<int>(idx)));
    EXPECT_FALSE(m.owns(k, -1));
  }
}

TEST(ShardMap, ReplicasClampedToNodeCount) {
  cluster::ShardMap m("t", make_nodes(2), 64, 5);
  EXPECT_EQ(m.route(key_of(1)).size(), 2u);
}

TEST(ShardMap, MembershipChangeBumpsEpochAndKeepsConfig) {
  cluster::ShardMap m("t", make_nodes(3), 64, 2, /*epoch=*/7);
  cluster::ShardMap grown = m.with_node_added({"n9", "h", 1});
  EXPECT_EQ(grown.epoch(), 8u);
  EXPECT_EQ(grown.cluster_id(), "t");
  EXPECT_EQ(grown.vnodes(), 64u);
  EXPECT_EQ(grown.replicas(), 2u);
  EXPECT_EQ(grown.size(), 4u);
  cluster::ShardMap shrunk = grown.with_node_removed("n9");
  EXPECT_EQ(shrunk.epoch(), 9u);
  EXPECT_EQ(shrunk.size(), 3u);
  EXPECT_THROW(m.with_node_added({"n0", "h", 1}), CompressionError);
  EXPECT_THROW(m.with_node_removed("nope"), CompressionError);
}

TEST(ShardMap, ConstructorRejectsBadConfigs) {
  EXPECT_THROW(cluster::ShardMap("t", {}, 64, 2), CompressionError);
  EXPECT_THROW(cluster::ShardMap("t", {{"", "h", 1}}, 64, 2), CompressionError);
  EXPECT_THROW(
      cluster::ShardMap("t", {{"a", "h", 1}, {"a", "h", 2}}, 64, 2),
      CompressionError);
  EXPECT_THROW(cluster::ShardMap("t", make_nodes(2), 0, 2), CompressionError);
  EXPECT_THROW(cluster::ShardMap("t", make_nodes(2), 64, 0), CompressionError);
  EXPECT_THROW(cluster::ShardMap().route(key_of(1)), CompressionError);
}

// ---------------------------------------------------------------------------
// PFSM serialization

TEST(ShardMap, SerializeParseRoundTripIsDeterministic) {
  cluster::ShardMap m("prod-cluster", make_nodes(4), 128, 3, /*epoch=*/42);
  const Bytes wire = m.serialize();
  const cluster::ShardMap back = cluster::ShardMap::parse(wire);
  EXPECT_EQ(back.cluster_id(), m.cluster_id());
  EXPECT_EQ(back.epoch(), m.epoch());
  EXPECT_EQ(back.vnodes(), m.vnodes());
  EXPECT_EQ(back.replicas(), m.replicas());
  ASSERT_EQ(back.size(), m.size());
  // Byte-identical reserialization: maps are content-addressable.
  EXPECT_EQ(back.serialize(), wire);
  // Identical routing decisions on both sides of the wire.
  for (unsigned i = 0; i < 2000; ++i)
    EXPECT_EQ(back.route(key_of(i)), m.route(key_of(i)));
}

TEST(ShardMap, ParseRejectsCorruption) {
  cluster::ShardMap m("t", make_nodes(3), 64, 2);
  const Bytes wire = m.serialize();
  // Any flipped byte breaks the CRC (or the magic/version up front).
  for (std::size_t at : {std::size_t(0), wire.size() / 2, wire.size() - 1}) {
    Bytes bad = wire;
    bad[at] ^= 0x5A;
    EXPECT_THROW(cluster::ShardMap::parse(bad), CompressionError) << "at " << at;
  }
  // Truncation at every length below the full frame must throw, not read
  // out of bounds.
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_THROW(cluster::ShardMap::parse(wire.data(), len), CompressionError);
  // Trailing garbage is rejected too (the CRC must be the last word).
  Bytes longer = wire;
  longer.push_back(0);
  EXPECT_THROW(cluster::ShardMap::parse(longer), CompressionError);
}

TEST(ShardMap, SaveLoadFileRoundTrip) {
  cluster::ShardMap m("t", make_nodes(3), 64, 2, 5);
  const std::string path = ::testing::TempDir() + "/test_cluster_map.pfsm";
  m.save_file(path);
  const cluster::ShardMap back = cluster::ShardMap::load_file(path);
  EXPECT_EQ(back.serialize(), m.serialize());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SHARDMAP / HEALTH verbs

TEST(ClusterVerbs, ShardMapFetchAndExchange) {
  TestCluster cl(2);
  net::Client c(
      {.host = "127.0.0.1", .port = cl.map.nodes()[0].port});
  // Plain fetch returns the node's current map.
  cluster::ShardMap fetched = cluster::ShardMap::parse(c.shardmap_fetch());
  EXPECT_EQ(fetched.serialize(), cl.map.serialize());
  // Offering a strictly-newer map of the same cluster is adopted...
  cluster::ShardMap newer =
      cl.map.with_node_added({"n9", "127.0.0.1", 1}).with_node_removed("n9");
  ASSERT_EQ(newer.epoch(), cl.map.epoch() + 2);
  cluster::ShardMap reply = cluster::ShardMap::parse(c.shardmap_fetch(newer.serialize()));
  EXPECT_EQ(reply.epoch(), newer.epoch());
  EXPECT_EQ(cl.servers[0]->shard_map().epoch(), newer.epoch());
  EXPECT_GE(cl.servers[0]->stats().map_adopted, 1u);
  // ...while a stale offer leaves the server on its (now newer) map.
  cluster::ShardMap reply2 =
      cluster::ShardMap::parse(c.shardmap_fetch(cl.map.serialize()));
  EXPECT_EQ(reply2.epoch(), newer.epoch());
  // A different cluster's map is refused outright.
  cluster::ShardMap alien("other", make_nodes(2), 64, 2, 99);
  EXPECT_THROW(c.shardmap_fetch(alien.serialize()), net::RemoteError);
  // Garbage payloads are BadParams, not a crash.
  EXPECT_THROW(c.shardmap_fetch(Bytes{1, 2, 3}), net::RemoteError);
}

TEST(ClusterVerbs, ShardMapRefusedOnStandaloneServer) {
  net::Server server{net::Server::Options{}};
  std::thread t([&] { server.run(); });
  net::Client c({.host = "127.0.0.1", .port = server.port()});
  EXPECT_THROW(c.shardmap_fetch(), net::RemoteError);
  server.request_stop();
  t.join();
}

TEST(ClusterVerbs, HealthReportsNodeIdentity) {
  TestCluster cl(2);
  net::Client c({.host = "127.0.0.1", .port = cl.map.nodes()[1].port});
  const obs::JsonValue h = obs::parse_json(c.health());
  EXPECT_EQ(h.at("node_id").str, "n1");
  EXPECT_EQ(h.at("cluster_id").str, "test");
  EXPECT_EQ(h.at("epoch").num, 1.0);
  EXPECT_EQ(h.at("draining").num, 0.0);
  EXPECT_GE(cl.servers[1]->stats().health_checks, 1u);
}

// ---------------------------------------------------------------------------
// ClusterClient routing

TEST(ClusterClient, RoutedRoundTripsAreByteIdentical) {
  TestCluster cl(3);
  cluster::ClusterClient cc({.map = cl.map});
  for (unsigned seed = 0; seed < 8; ++seed) {
    const std::vector<float> raw = make_f32(4096, seed);
    pfpl::Params p;
    p.eb = EbType::ABS;
    p.eps = 1e-3;
    const Bytes local = pfpl::compress(Field(raw.data(), raw.size()), p);
    const Bytes remote = cc.compress(raw.data(), raw.size() * sizeof(float),
                                     DType::F32, EbType::ABS, 1e-3);
    EXPECT_EQ(remote, local) << "seed " << seed;
    EXPECT_EQ(cc.decompress(remote), pfpl::decompress(local));
  }
  // 16 requests routed by content key: with 3 nodes it is overwhelmingly
  // likely (and deterministic for these fixed seeds) that more than one
  // node answered.
  EXPECT_GT(cc.stats().node_requests.size(), 1u);
  EXPECT_EQ(cc.stats().requests, 16u);
  EXPECT_EQ(cc.stats().failovers, 0u);
}

TEST(ClusterClient, FailsOverWhenANodeStops) {
  TestCluster cl(3);
  cluster::ClusterClient cc({.map = cl.map});
  // Stop one node, then push enough distinct keys that some primary-route
  // to it; every request must still succeed via its replica.
  cl.stop(0);
  unsigned hit_dead_primary = 0;
  for (unsigned seed = 0; seed < 12; ++seed) {
    const std::vector<float> raw = make_f32(2048, seed);
    const common::Hash128 key = store::compress_key(
        raw.data(), raw.size() * sizeof(float), DType::F32, EbType::ABS, 1e-3);
    if (cl.map.primary(key) == 0) ++hit_dead_primary;
    const Bytes remote = cc.compress(raw.data(), raw.size() * sizeof(float),
                                     DType::F32, EbType::ABS, 1e-3);
    pfpl::Params p;
    p.eb = EbType::ABS;
    p.eps = 1e-3;
    EXPECT_EQ(remote, pfpl::compress(Field(raw.data(), raw.size()), p));
  }
  ASSERT_GT(hit_dead_primary, 0u)
      << "no key routed to the dead node; widen the seed range";
  EXPECT_GT(cc.stats().failovers, 0u);
  EXPECT_EQ(cc.stats().node_requests.count("n0"), 0u);
}

TEST(ClusterClient, StaleMapRecoversViaWrongShardAndRefresh) {
  // Two nodes with replicas=1 so ownership is exclusive; the client starts
  // from a stale single-node map and must discover the second node through
  // a WrongShard refusal + SHARDMAP refresh.
  std::vector<std::unique_ptr<net::Server>> servers;
  std::vector<cluster::NodeInfo> nodes;
  for (unsigned i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<net::Server>(net::Server::Options{}));
    nodes.push_back({node_id(i), "127.0.0.1", servers.back()->port()});
  }
  const cluster::ShardMap truth("test", nodes, 128, /*replicas=*/1, /*epoch=*/2);
  const cluster::ShardMap stale("test", {nodes[0]}, 128, 1, /*epoch=*/1);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < 2; ++i) {
    servers[i]->set_cluster(truth, node_id(i));
    threads.emplace_back([srv = servers[i].get()] { srv->run(); });
  }

  cluster::ClusterClient cc({.map = stale});
  // Find payloads owned by each node under the truth map; the n1-owned one
  // forces the WrongShard path (the stale client can only see n0).
  unsigned n1_seed = 0, tries = 0;
  for (;; ++tries) {
    ASSERT_LT(tries, 64u);
    const std::vector<float> raw = make_f32(1024, tries);
    const common::Hash128 key = store::compress_key(
        raw.data(), raw.size() * sizeof(float), DType::F32, EbType::ABS, 1e-3);
    if (truth.nodes()[truth.primary(key)].id == "n1") {
      n1_seed = tries;
      break;
    }
  }
  const std::vector<float> raw = make_f32(1024, n1_seed);
  const Bytes remote = cc.compress(raw.data(), raw.size() * sizeof(float),
                                   DType::F32, EbType::ABS, 1e-3);
  pfpl::Params p;
  p.eb = EbType::ABS;
  p.eps = 1e-3;
  EXPECT_EQ(remote, pfpl::compress(Field(raw.data(), raw.size()), p));
  EXPECT_GE(cc.stats().wrong_shard, 1u);
  EXPECT_GE(cc.stats().map_refreshes, 1u);
  EXPECT_EQ(cc.map().epoch(), truth.epoch());
  EXPECT_EQ(cc.stats().node_requests.at("n1"), 1u);
  // The refusal came from n0 — the only node the stale client could reach.
  EXPECT_GE(servers[0]->stats().wrong_shard, 1u);

  for (auto& s : servers) s->request_stop();
  for (auto& t : threads) t.join();
}

TEST(ClusterClient, RefreshMapPollsEveryNode) {
  TestCluster cl(2);
  // Bump node 0 to a newer epoch behind the client's back.
  const cluster::ShardMap newer =
      cl.map.with_node_added({"nx", "127.0.0.1", 1}).with_node_removed("nx");
  cl.servers[0]->set_cluster(newer, "n0");
  cluster::ClusterClient cc({.map = cl.map});
  EXPECT_TRUE(cc.refresh_map());
  EXPECT_EQ(cc.map().epoch(), newer.epoch());
  EXPECT_FALSE(cc.refresh_map());  // already newest
}

TEST(ClusterClient, EmptyMapIsRejected) {
  EXPECT_THROW(cluster::ClusterClient({.map = cluster::ShardMap()}),
               CompressionError);
}

}  // namespace
