// Fixed-size worker pool and data-parallel helpers for the engine's batched
// execution (paper Section 5.1.2: the per-plan model fits and per-complaint
// rankings of one Reptile invocation are independent).
//
// Design notes:
//  * No work stealing, no task dependencies — the engine's stages are flat
//    fan-outs with a join at the end, so a single FIFO queue suffices and
//    keeps task start order deterministic (completion order is not).
//  * ParallelFor/ParallelMap write results by index: output order never
//    depends on scheduling, which is what makes the parallel engine paths
//    element-wise identical to the sequential ones.
//  * A pool of size 1 — or a null pool — runs everything inline on the
//    calling thread: the sequential path is literally the same code.
//  * Exceptions thrown by tasks are captured and the one with the lowest
//    task index is rethrown on the calling thread after the join —
//    deterministic regardless of scheduling. (This repo's own invariants use
//    REPTILE_CHECK, which aborts the process from whatever thread it fires
//    on, worker or caller, without reaching this path; the rethrow exists
//    for exception-throwing task code such as tests or embedding clients.)

#ifndef REPTILE_PARALLEL_THREAD_POOL_H_
#define REPTILE_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace reptile {

/// Fixed-size thread pool with a FIFO task queue. Destruction drains the
/// queue: every task submitted before the destructor runs is executed before
/// the workers join.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not submit to the pool they run on while a
  /// ParallelFor join is pending on all of them (the engine's stages never
  /// do); they may freely submit to other pools.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// Tasks queued or currently running — the pool-depth gauge /metricsz
  /// exports for the shared pool. A snapshot: the value may be stale by the
  /// time it returns.
  int64_t PendingTasks() const;

  /// std::thread::hardware_concurrency() with a fallback of 1 when the
  /// runtime cannot report it.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;  // mutable: PendingTasks() is a const observer
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int64_t in_flight_ = 0;  // queued + currently running tasks
  bool shutting_down_ = false;
};

/// The process-wide shared compute pool: lazily created on first use,
/// DefaultThreads() wide, and intentionally never destroyed (leaked so no
/// static-destruction-order hazard exists for late users). Many concurrent
/// Engines — and anything else fanning out compute — share these workers
/// instead of each spawning hardware_concurrency threads, so one busy server
/// process cannot oversubscribe the machine. Concurrent ParallelFor calls on
/// it are safe (each call carries its own completion latch).
///
/// Only submit short-lived compute tasks: a task that blocks indefinitely
/// (e.g. an HTTP handler — net/reactor_server.h owns a separate handler
/// pool for exactly this reason) would starve every other client of the
/// shared workers. Components that need a specific width or isolation
/// opt out by constructing their own ThreadPool.
ThreadPool* SharedThreadPool();

/// The shared pool's PendingTasks(), or 0 before its first use: reading the
/// depth (a /healthz or /metricsz scrape) never starts the pool's threads.
int64_t SharedThreadPoolPendingTasks();

/// Runs fn(i) for every i in [0, n), fanning out across `pool` (nullptr or a
/// one-thread pool = inline sequential execution). Blocks until every index
/// has run. If any invocation throws, the exception of the lowest failing
/// index is rethrown here after all tasks finish — deterministic regardless
/// of scheduling.
void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn);

/// ParallelFor that materialises fn's results in index order.
template <typename R>
std::vector<R> ParallelMap(ThreadPool* pool, int64_t n,
                           const std::function<R(int64_t)>& fn) {
  std::vector<R> out(static_cast<size_t>(n));
  ParallelFor(pool, n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); });
  return out;
}

}  // namespace reptile

#endif  // REPTILE_PARALLEL_THREAD_POOL_H_
