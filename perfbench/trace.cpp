#include "trace.hpp"

#include <fstream>
#include <map>

#include "bench.hpp"

namespace pb {

Tracer::Scope::Scope(Tracer& t, const char* name, u64 request_id)
    : t_(t), idx_(static_cast<long>(t.spans_.size())) {
  Span s{name};
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.request_id = request_id;
  s.start_ns = now_ns();
  t.spans_.push_back(s);
  t.open_.push_back(idx_);
}

Tracer::Scope::~Scope() {
  t_.spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  t_.open_.pop_back();
}

void Tracer::record(const char* name, u64 start_ns, u64 end_ns, u64 request_id) {
  Span s{name};
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request_id = request_id;
  spans_.push_back(s);
}

std::vector<Tracer::Layer> Tracer::layers() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += (s.end_ns - s.start_ns) / 1e6;
  std::map<std::string, Layer> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& l = by_name[spans_[i].name];
    l.name = spans_[i].name;
    const double d = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    ++l.count;
    l.total_ms += d;
    l.self_ms += d - child_ms[i];
  }
  std::vector<Layer> out;
  for (auto& [name, l] : by_name) out.push_back(l);
  return out;
}

Tracer::Layer Tracer::layer(const std::string& name) const {
  for (const Layer& l : layers())
    if (l.name == name) return l;
  return Layer{name};
}

bool Tracer::write_json(const std::string& path, const std::string& provenance) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"provenance\":" << provenance << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
      << ",\"request_id\":" << s.request_id << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void write_trace(const Config& cfg, const Tracer& tr) {
  if (!cfg.trace_out.empty() && !tr.write_json(cfg.trace_out, provenance_json(cfg)))
    std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_out.c_str());
}

void print_budget(std::FILE* out, const std::string& title, const std::vector<BudgetRow>& rows,
                  double remainder_ms, double traced_ms, double untraced_ms,
                  const char* remainder) {
  auto share = [&](double ms) { return traced_ms > 0 ? 100.0 * ms / traced_ms : 0.0; };
  std::fprintf(out, "layer budget: %s\n", title.c_str());
  std::fprintf(out, "  %-28s %12s %8s\n", "layer", "ms", "share");
  for (const BudgetRow& r : rows)
    std::fprintf(out, "  %-28s %12.3f %7.1f%%\n", r.layer.c_str(), r.ms, share(r.ms));
  std::fprintf(out, "  %-28s %12.3f %7.1f%%\n", remainder, remainder_ms, share(remainder_ms));
  std::fprintf(out, "  %-28s %12.3f %7.1f%%\n", "= traced end-to-end", traced_ms, 100.0);
  std::fprintf(out, "  %-28s %12.3f\n", "untraced end-to-end", untraced_ms);
  std::fprintf(out, "  %-28s %12.3f %7.1f%% of untraced\n", "tracing overhead",
               traced_ms - untraced_ms,
               untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms : 0.0);
}

}  // namespace pb
