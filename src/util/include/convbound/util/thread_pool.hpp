// Fixed-size work-queue thread pool.
//
// In the GPU simulator each thread running a launch plays the role of one
// streaming multiprocessor: a striped launch cuts its grid into contiguous
// block chunks that the workers and the calling thread claim through
// parallel_for, the way a GPU hands blocks to whichever SM is free.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class ThreadPool {
 public:
  /// Creates `n` workers; n == 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueue a task; the returned future rethrows task exceptions.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until done.
  /// Work is chunked to amortise queueing overhead. The caller runs chunks
  /// too, so a call from inside a pool task (nesting) cannot deadlock, on
  /// any pool size. The first exception is rethrown after every chunk ran.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ CB_GUARDED_BY(mu_);
  bool stop_ CB_GUARDED_BY(mu_) = false;
};

}  // namespace convbound
