#include "parallel/thread_pool.h"

#include <atomic>
#include <utility>

namespace reptile {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();  // drain: every submitted task runs before the workers join
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int64_t ThreadPool::PendingTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // ParallelFor wraps tasks in try/catch; they never throw here
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {
std::atomic<ThreadPool*> g_shared_pool{nullptr};  // set once SharedThreadPool() ran
}  // namespace

ThreadPool* SharedThreadPool() {
  // Magic-static: thread-safe lazy init. Leaked by design (see header).
  static ThreadPool* const pool = [] {
    ThreadPool* created = new ThreadPool(ThreadPool::DefaultThreads());
    g_shared_pool.store(created, std::memory_order_release);
    return created;
  }();
  return pool;
}

int64_t SharedThreadPoolPendingTasks() {
  const ThreadPool* pool = g_shared_pool.load(std::memory_order_acquire);
  return pool != nullptr ? pool->PendingTasks() : 0;
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Completion latch local to this call, so concurrent ParallelFor calls on
  // one pool (the engine never issues them, but tests may) don't interfere.
  std::mutex mu;
  std::condition_variable done;
  int64_t remaining = n;
  int64_t first_error_index = n;  // lowest task index that threw
  std::exception_ptr error;

  for (int64_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      std::exception_ptr caught;
      try {
        fn(i);
      } catch (...) {
        caught = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (caught != nullptr && i < first_error_index) {
        first_error_index = i;
        error = caught;
      }
      if (--remaining == 0) done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace reptile
