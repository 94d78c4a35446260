// BoundedQueue — the inter-stage channel of the ingest pipeline.
//
// MPMC, bounded by BOTH an item count and a byte budget: push() blocks while
// either bound is exceeded, which is the pipeline's backpressure — a fast
// reader can never buffer more than `max_bytes` of raw file data ahead of a
// slow encoder. One oversized item is admitted when the queue is empty,
// otherwise a file larger than the whole budget would deadlock the pipeline.
//
// Lifecycle: close() ends the stream — pushes are rejected, pops drain the
// remaining items then return false. cancel() is the error path — pending
// items are dropped on the floor, blocked pushers and poppers wake
// immediately with false, so a failing pipeline unwinds without deadlock.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"

namespace repro::ingest {

template <typename T>
class BoundedQueue {
 public:
  /// `depth` (optional) is set to the live item count on every push/pop —
  /// the ingest.q_*_depth gauges.
  BoundedQueue(std::size_t max_items, std::size_t max_bytes,
               obs::Gauge* depth = nullptr)
      : max_items_(std::max<std::size_t>(1, max_items)),
        max_bytes_(std::max<std::size_t>(1, max_bytes)),
        depth_(depth) {}

  /// Blocks until the item fits (or the queue empties for an oversized one).
  /// Returns false — dropping `item` — when the queue was closed or
  /// cancelled.
  bool push(T item, std::size_t bytes) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] {
      return closed_ || cancelled_ || q_.empty() ||
             (q_.size() < max_items_ && bytes_ + bytes <= max_bytes_);
    });
    if (closed_ || cancelled_) return false;
    q_.emplace_back(std::move(item), bytes);
    bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, bytes_);
    peak_items_ = std::max(peak_items_, q_.size());
    if (depth_) depth_->set(static_cast<long long>(q_.size()));
    lk.unlock();
    cv_.notify_all();
    return true;
  }

  /// Blocks until an item is available. Returns false when cancelled, or
  /// when the queue is closed and fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return cancelled_ || closed_ || !q_.empty(); });
    if (cancelled_ || q_.empty()) return false;
    take_front_locked(out);
    lk.unlock();
    cv_.notify_all();
    return true;
  }

  /// Non-blocking pop; false when nothing is immediately available.
  bool try_pop(T& out) {
    std::unique_lock<std::mutex> lk(m_);
    if (cancelled_ || q_.empty()) return false;
    take_front_locked(out);
    lk.unlock();
    cv_.notify_all();
    return true;
  }

  /// End of stream: no more pushes; pops drain what is queued.
  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Error path: drop everything, wake every blocked caller with false.
  void cancel() {
    {
      std::lock_guard<std::mutex> lk(m_);
      cancelled_ = true;
      q_.clear();
      bytes_ = 0;
      if (depth_) depth_->set(0);
    }
    cv_.notify_all();
  }

  bool cancelled() const {
    std::lock_guard<std::mutex> lk(m_);
    return cancelled_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return q_.size();
  }
  /// High-water marks over the queue's lifetime (the backpressure proof the
  /// byte-budget test asserts on).
  std::size_t peak_bytes() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_bytes_;
  }
  std::size_t peak_items() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_items_;
  }
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  void take_front_locked(T& out) {
    out = std::move(q_.front().first);
    bytes_ -= std::min(bytes_, q_.front().second);
    q_.pop_front();
    if (depth_) depth_->set(static_cast<long long>(q_.size()));
  }

  std::size_t max_items_;
  std::size_t max_bytes_;
  obs::Gauge* depth_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::pair<T, std::size_t>> q_;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t peak_items_ = 0;
  bool closed_ = false;
  bool cancelled_ = false;
};

}  // namespace repro::ingest
