// Span recorder of the traced run.
//
// Spans are recorded only here, in the benchmark, around its calls into the
// PFPL modules: a span carries a name, start, end, the span that caused it
// and a request id. They are kept in memory and written out when the run
// ends. A layer's self time is its span's duration minus the part covered by
// its child spans, so the self times of one root's subtree add up to the
// root's duration exactly.
//
// One Tracer is used from one thread at a time (the open-span stack is a
// plain member).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pb {

using repro::u64;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    u64 start_ns = 0;
    u64 end_ns = 0;
    long parent = -1;  ///< index of the causing span, -1 for a root
    u64 request_id = 0;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, u64 request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    long idx_;
  };

  /// Record a closed span with explicit times under the current open span.
  void record(const char* name, u64 start_ns, u64 end_ns, u64 request_id = 0);

  /// Append the closed spans of another tracer (e.g. one per client thread).
  void append(const Tracer& o) {
    const long base = static_cast<long>(spans_.size());
    for (Span s : o.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Per-name totals: count, summed duration and summed self time.
  struct Layer {
    std::string name;
    u64 count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<Layer> layers() const;

  /// Total and self time of every span named `name`.
  Layer layer(const std::string& name) const;

  /// Write every span as JSON ({"name","start_ns","end_ns","parent","request_id"}).
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& provenance) const;

 private:
  std::vector<Span> spans_;
  std::vector<long> open_;
};

/// One row of a layer-budget table.
struct BudgetRow {
  std::string layer;
  double ms = 0;
};

/// Print a layer-budget table: each layer's time, the remainder (labelled
/// `remainder`, by default the unattributed time), and the tracing overhead
/// against the untraced end-to-end time. The rows plus the remainder add up
/// to `traced_ms`.
void print_budget(std::FILE* out, const std::string& title, const std::vector<BudgetRow>& rows,
                  double remainder_ms, double traced_ms, double untraced_ms,
                  const char* remainder = "(unattributed)");

}  // namespace pb
