#include "svc/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace repro::svc {
namespace {

/// Pool metric handles, resolved once (see obs/metrics.hpp on the pattern).
struct PoolMetrics {
  obs::Counter& steals;
  obs::Gauge& queue_depth;
  obs::Histogram& task_wait_us;  ///< enqueue -> dequeue
  obs::Histogram& task_run_us;   ///< dequeue -> completion
  obs::Histogram& steal_us;      ///< victim-scan latency of successful steals
  static PoolMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static PoolMetrics m{r.counter("svc.pool.steals"), r.gauge("svc.pool.queue_depth"),
                         r.histogram("svc.pool.task_wait_us"),
                         r.histogram("svc.pool.task_run_us"),
                         r.histogram("svc.pool.steal_us")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(1, queue_capacity)) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.push_back(std::make_unique<Worker>());
  // Deques exist before any thread starts, so worker_loop can scan all of
  // them for victims without synchronizing on the vector itself.
  for (unsigned i = 0; i < threads; ++i)
    workers_[i]->thread = std::thread(&ThreadPool::worker_loop, this, i);
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> f) {
  const bool obs_on = obs::enabled();
  Task t{std::move(f), obs_on ? obs::TraceRecorder::global().now_ns() : 0,
         obs_on ? obs::TraceContext::current() : 0};
  std::unique_lock<std::mutex> lk(state_m_);
  space_cv_.wait(lk, [&] { return stopping_ || draining_ || pending_ < capacity_; });
  if (stopping_) throw CompressionError("svc::ThreadPool: submit after shutdown");
  if (draining_) throw CompressionError("svc::ThreadPool: submit during drain");
  const unsigned target = static_cast<unsigned>(next_worker_++ % workers_.size());
  {
    // Push BEFORE pending_ is bumped (both under state_m_, so the two are
    // ordered for anyone holding the lock): a worker whose wait predicate
    // observes pending_ > 0 is then guaranteed to find a task in some deque
    // instead of busy-spinning through empty scans until the push lands.
    // Lock order state_m_ -> worker.m is safe: workers take the two locks
    // only one at a time, never nested.
    std::lock_guard<std::mutex> dlk(workers_[target]->m);
    workers_[target]->q.push_back(std::move(t));
  }
  ++pending_;
  ++counters_.submitted;
  counters_.peak_pending = std::max<u64>(counters_.peak_pending, pending_);
  PoolMetrics::get().queue_depth.set(static_cast<long long>(pending_));
  lk.unlock();
  work_cv_.notify_one();
}

bool ThreadPool::try_pop_own(unsigned self, Task& out) {
  Worker& w = *workers_[self];
  std::lock_guard<std::mutex> lk(w.m);
  if (w.q.empty()) return false;
  out = std::move(w.q.back());  // owner pops LIFO
  w.q.pop_back();
  return true;
}

bool ThreadPool::try_steal(unsigned self, Task& out) {
  const u64 t0 = obs::enabled() ? obs::TraceRecorder::global().now_ns() : 0;
  const unsigned n = static_cast<unsigned>(workers_.size());
  for (unsigned k = 1; k < n; ++k) {
    Worker& victim = *workers_[(self + k) % n];
    std::lock_guard<std::mutex> lk(victim.m);
    if (victim.q.empty()) continue;
    out = std::move(victim.q.front());  // thieves steal FIFO
    victim.q.pop_front();
    if (t0) {
      PoolMetrics& m = PoolMetrics::get();
      m.steals.add(1);
      m.steal_us.record((obs::TraceRecorder::global().now_ns() - t0) / 1000);
    }
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(unsigned self) {
  // Watchdog slot for stall detection: one per worker, marked busy around
  // each task. Slots are process-global and never recycled; once the table
  // fills (many short-lived pools in one test process) later workers get -1
  // and StallScope goes inert, which only costs them stall coverage.
  const int wd_slot =
      obs::Watchdog::global().register_slot("svc.worker." + std::to_string(self));
  for (;;) {
    Task task;
    bool got = try_pop_own(self, task);
    bool was_steal = false;
    if (!got) {
      got = try_steal(self, task);
      was_steal = got;
    }
    if (!got) {
      std::unique_lock<std::mutex> lk(state_m_);
      // Re-check under the lock: a task may have been enqueued between the
      // deque scans and this wait.
      work_cv_.wait(lk, [&] { return pending_ > 0 || stopping_; });
      if (pending_ == 0 && stopping_) return;
      continue;  // retry the deque scan
    }
    {
      std::lock_guard<std::mutex> lk(state_m_);
      --pending_;
      ++running_;
      if (was_steal) ++counters_.stolen;
      PoolMetrics::get().queue_depth.set(static_cast<long long>(pending_));
    }
    space_cv_.notify_one();  // queue slot freed on dequeue, not completion
    u64 run_t0 = 0;
    if (obs::enabled()) {
      obs::TraceRecorder& rec = obs::TraceRecorder::global();
      run_t0 = rec.now_ns();
      // enqueue_ns can postdate run_t0 if TraceRecorder::clear() reset the
      // epoch between enqueue and dequeue; skip the sample rather than wrap.
      if (task.enqueue_ns && run_t0 >= task.enqueue_ns)
        PoolMetrics::get().task_wait_us.record((run_t0 - task.enqueue_ns) / 1000);
    }
    {
      // The stall scope brackets exactly one task: a worker flagged by the
      // watchdog has been inside this block — i.e. inside task.fn() — past
      // the threshold. `detail` carries the originating request id.
      obs::StallScope stall(wd_slot, task.trace_ctx);
      if (run_t0) {
        // Re-install the submitter's trace context for the task's duration so
        // every span it opens (and the task span itself) is tagged with the
        // originating request id.
        obs::TraceContext::Scope ctx(task.trace_ctx);
        obs::ScopedSpan span("svc.pool.task");
        task.fn();
      } else {
        task.fn();
      }
    }
    if (run_t0)
      PoolMetrics::get().task_run_us.record(
          (obs::TraceRecorder::global().now_ns() - run_t0) / 1000);
    {
      std::lock_guard<std::mutex> lk(state_m_);
      --running_;
      ++counters_.executed;
      if (pending_ == 0 && running_ == 0) idle_cv_.notify_all();
    }
    space_cv_.notify_one();
  }
}

void ThreadPool::for_each(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Lives on the caller's stack: safe, because the caller does not return
  // before every task has checked out under `m`.
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::condition_variable done;
    std::size_t live = 0;
    std::exception_ptr err;
  } loop;
  const std::size_t tasks = std::min<std::size_t>(n, workers_.size());
  loop.live = tasks;
  auto run = [&loop, &body, n] {
    try {
      for (std::size_t i; (i = loop.next.fetch_add(1)) < n;) body(i);
    } catch (...) {
      loop.next.store(n);  // the other tasks stop
      std::lock_guard<std::mutex> lk(loop.m);
      if (!loop.err) loop.err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(loop.m);
    if (--loop.live == 0) loop.done.notify_all();
  };
  std::size_t submitted = 0;
  std::exception_ptr submit_err;
  try {
    for (; submitted < tasks; ++submitted) enqueue(run);
  } catch (...) {
    submit_err = std::current_exception();
  }
  std::unique_lock<std::mutex> lk(loop.m);
  loop.live -= tasks - submitted;
  loop.done.wait(lk, [&] { return loop.live == 0; });
  if (loop.err) std::rethrow_exception(loop.err);
  // One queued task is enough to run every index; only a loop that could
  // not queue any (shutdown or drain) has failed to run.
  if (submitted == 0) std::rethrow_exception(submit_err);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(state_m_);
  idle_cv_.wait(lk, [&] { return pending_ == 0 && running_ == 0; });
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lk(state_m_);
  // Concurrent drains simply queue up on the same predicate: each waits for
  // idle, and the flag stays set until the last one re-enables submissions.
  draining_ = true;
  lk.unlock();
  // Wake producers blocked on the capacity bound so they see the drain and
  // throw instead of waiting out a queue slot that may never matter again.
  space_cv_.notify_all();
  lk.lock();
  idle_cv_.wait(lk, [&] { return pending_ == 0 && running_ == 0; });
  draining_ = false;
  lk.unlock();
  space_cv_.notify_all();
}

bool ThreadPool::draining() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return draining_;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(state_m_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return pending_;
}

ThreadPool::Counters ThreadPool::counters() const {
  std::lock_guard<std::mutex> lk(state_m_);
  return counters_;
}

}  // namespace repro::svc
