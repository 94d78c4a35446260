#include "cluster/shard_map.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>

#include "bits/crc32.hpp"
#include "obs/json.hpp"

namespace repro::cluster {
namespace {

constexpr u32 kMapMagic = 0x4D534650;  // "PFSM" little-endian
constexpr u16 kMapVersion = 1;

template <typename T>
void put_le(Bytes& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<u8>(v >> (8 * i)));
}

void put_str(Bytes& out, const std::string& s) {
  if (s.size() > 0xFFFF)
    throw CompressionError("PFSM: string field over 65535 bytes");
  put_le<u16>(out, static_cast<u16>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader over a parse buffer.
struct Reader {
  const u8* p;
  std::size_t n;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    if (n - pos < sizeof(T)) throw CompressionError("PFSM: truncated map");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(p[pos + i]) << (8 * i);
    pos += sizeof(T);
    return v;
  }

  std::string get_str() {
    const u16 len = get<u16>();
    if (n - pos < len) throw CompressionError("PFSM: truncated map");
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
};

/// Ring position of a key: both halves of the 128-bit hash folded so keys
/// differing only in the low half still spread.
u64 ring_point(const common::Hash128& key) { return key.hi ^ (key.lo * 0x9E3779B97F4A7C15ull); }

}  // namespace

ShardMap::ShardMap(std::string cluster_id, std::vector<NodeInfo> nodes,
                   u32 vnodes, u16 replicas, u64 epoch)
    : cluster_id_(std::move(cluster_id)),
      nodes_(std::move(nodes)),
      vnodes_(vnodes),
      replicas_(replicas),
      epoch_(epoch) {
  if (nodes_.empty())
    throw CompressionError("ShardMap: a cluster needs at least one node");
  if (vnodes_ == 0) throw CompressionError("ShardMap: vnodes must be > 0");
  if (replicas_ == 0) throw CompressionError("ShardMap: replicas must be > 0");
  std::sort(nodes_.begin(), nodes_.end(),
            [](const NodeInfo& a, const NodeInfo& b) { return a.id < b.id; });
  std::set<std::string> ids;
  for (const NodeInfo& n : nodes_) {
    if (n.id.empty()) throw CompressionError("ShardMap: empty node id");
    if (!ids.insert(n.id).second)
      throw CompressionError("ShardMap: duplicate node id '" + n.id + "'");
  }
  build_ring();
}

void ShardMap::build_ring() {
  ring_.clear();
  ring_.reserve(static_cast<std::size_t>(nodes_.size()) * vnodes_);
  for (u32 ni = 0; ni < nodes_.size(); ++ni) {
    for (u32 v = 0; v < vnodes_; ++v) {
      const std::string label = nodes_[ni].id + "#" + std::to_string(v);
      ring_.emplace_back(common::hash128(label.data(), label.size()).hi, ni);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardMap::find_node(const std::string& id) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].id == id) return static_cast<int>(i);
  return -1;
}

std::vector<u32> ShardMap::route(const common::Hash128& key) const {
  if (ring_.empty()) throw CompressionError("ShardMap: route on an empty map");
  const u64 point = ring_point(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, u32{0}),
      [](const std::pair<u64, u32>& a, const std::pair<u64, u32>& b) {
        return a.first < b.first;
      });
  const std::size_t want = std::min<std::size_t>(replicas_, nodes_.size());
  std::vector<u32> out;
  out.reserve(want);
  // Walk clockwise collecting distinct nodes; replicas_ distinct owners are
  // always found within one full lap because every node owns vnodes points.
  for (std::size_t step = 0; step < ring_.size() && out.size() < want; ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const u32 ni = it->second;
    if (std::find(out.begin(), out.end(), ni) == out.end()) out.push_back(ni);
    ++it;
  }
  return out;
}

u32 ShardMap::primary(const common::Hash128& key) const { return route(key)[0]; }

bool ShardMap::owns(const common::Hash128& key, int node_index) const {
  if (node_index < 0) return false;
  const std::vector<u32> r = route(key);
  return std::find(r.begin(), r.end(), static_cast<u32>(node_index)) != r.end();
}

ShardMap ShardMap::with_node_added(NodeInfo node) const {
  if (find_node(node.id) >= 0)
    throw CompressionError("ShardMap: node '" + node.id + "' already present");
  std::vector<NodeInfo> nodes = nodes_;
  nodes.push_back(std::move(node));
  return ShardMap(cluster_id_, std::move(nodes), vnodes_, replicas_, epoch_ + 1);
}

ShardMap ShardMap::with_node_removed(const std::string& id) const {
  const int idx = find_node(id);
  if (idx < 0) throw CompressionError("ShardMap: unknown node '" + id + "'");
  std::vector<NodeInfo> nodes = nodes_;
  nodes.erase(nodes.begin() + idx);
  return ShardMap(cluster_id_, std::move(nodes), vnodes_, replicas_, epoch_ + 1);
}

Bytes ShardMap::serialize() const {
  Bytes out;
  put_le<u32>(out, kMapMagic);
  put_le<u16>(out, kMapVersion);
  put_le<u16>(out, replicas_);
  put_le<u32>(out, vnodes_);
  put_le<u64>(out, epoch_);
  put_str(out, cluster_id_);
  put_le<u32>(out, static_cast<u32>(nodes_.size()));
  for (const NodeInfo& n : nodes_) {  // nodes_ sorted by id => deterministic
    put_str(out, n.id);
    put_str(out, n.host);
    put_le<u16>(out, n.port);
  }
  put_le<u32>(out, bits::crc32(out.data(), out.size()));
  return out;
}

ShardMap ShardMap::parse(const void* data, std::size_t n) {
  Reader r{static_cast<const u8*>(data), n};
  if (n < 4 + 2 + 2 + 4 + 8 + 2 + 4 + 4)
    throw CompressionError("PFSM: truncated map");
  if (r.get<u32>() != kMapMagic) throw CompressionError("PFSM: bad magic");
  const u16 version = r.get<u16>();
  if (version != kMapVersion)
    throw CompressionError("PFSM: unsupported version " + std::to_string(version));
  const u16 replicas = r.get<u16>();
  const u32 vnodes = r.get<u32>();
  const u64 epoch = r.get<u64>();
  std::string cluster_id = r.get_str();
  const u32 count = r.get<u32>();
  std::vector<NodeInfo> nodes;
  nodes.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    NodeInfo ni;
    ni.id = r.get_str();
    ni.host = r.get_str();
    ni.port = r.get<u16>();
    nodes.push_back(std::move(ni));
  }
  const std::size_t body = r.pos;
  const u32 stored = r.get<u32>();
  const u32 actual = bits::crc32(r.p, body);
  if (stored != actual) throw CompressionError("PFSM: CRC mismatch");
  if (r.pos != n) throw CompressionError("PFSM: trailing bytes after map");
  return ShardMap(std::move(cluster_id), std::move(nodes), vnodes, replicas, epoch);
}

ShardMap ShardMap::load_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw CompressionError("PFSM: cannot open '" + path + "'");
  Bytes b((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  return parse(b);
}

void ShardMap::save_file(const std::string& path) const {
  const Bytes b = serialize();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw CompressionError("PFSM: cannot write '" + path + "'");
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
  if (!f) throw CompressionError("PFSM: short write to '" + path + "'");
}

std::string ShardMap::json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("cluster_id", cluster_id_);
  w.kv("epoch", static_cast<unsigned long long>(epoch_));
  w.kv("replicas", static_cast<unsigned long long>(replicas_));
  w.kv("vnodes", static_cast<unsigned long long>(vnodes_));
  w.key("nodes").begin_array();
  for (const NodeInfo& n : nodes_) {
    w.begin_object();
    w.kv("id", n.id);
    w.kv("host", n.host);
    w.kv("port", static_cast<unsigned long long>(n.port));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace repro::cluster
