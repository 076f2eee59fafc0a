// ESSEX: fixed-size worker pool used by the RealExecutor.
//
// The paper's parallel ESSE treats ensemble members as independent
// "singleton" jobs drained from a pool (§4.1). In-process we model the
// same thing with a work queue + worker threads; cancellation mirrors the
// paper's "remaining ensemble members are canceled" on convergence.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace essex {

/// Elastic thread pool with FIFO dispatch and cooperative cancellation.
/// The worker count can be resized at runtime (ForecastService elasticity):
/// growing spawns workers that immediately join the running queue, and
/// shrinking retires workers after their current task — in-flight work is
/// never interrupted by a resize.
class ThreadPool {
 public:
  /// Per-task cancellation handle (see the CancelToken submit overload).
  using CancelToken = std::shared_ptr<std::atomic<bool>>;

  /// Spawn `n_threads` workers (>= 1).
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  /// Grow or shrink the live worker count (>= 1). Growth is immediate;
  /// excess workers retire cooperatively once they finish their current
  /// task. Safe to call concurrently with submits.
  void resize(std::size_t n_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its completion. Tasks receive a
  /// stop flag they may poll for cooperative cancellation.
  std::future<void> submit(std::function<void(const std::atomic<bool>&)> task);

  /// Convenience overload for tasks that ignore cancellation.
  std::future<void> submit(std::function<void()> task);

  /// Per-task cancellation: the task's stop flag is `*token` instead of
  /// the pool-wide flag. If the token is raised before the task starts,
  /// the worker skips it (TaskCancelled through the future); raised
  /// mid-run it is visible to the task for cooperative early exit.
  std::future<void> submit(std::function<void(const std::atomic<bool>&)> task,
                           CancelToken token);

  /// Discard tasks not yet started and raise the cancellation flag that
  /// running tasks can poll. Pending futures complete exceptionally with
  /// TaskCancelled.
  void cancel_pending();

  /// Block until every queued task has finished (or been cancelled).
  void wait_idle();

  /// Live (non-retired) worker threads. Lags target_count() after a
  /// shrink until the excess workers finish their current task.
  std::size_t thread_count() const;

  /// The worker count last asked for (construction or resize()).
  std::size_t target_count() const;

  /// Number of tasks queued but not yet started.
  std::size_t queued() const;

  /// Exception delivered through futures of tasks discarded by
  /// cancel_pending().
  struct TaskCancelled : std::exception {
    const char* what() const noexcept override {
      return "ESSEX thread pool task cancelled before start";
    }
  };

 private:
  struct Item {
    std::function<void(const std::atomic<bool>&)> fn;
    std::promise<void> done;
    CancelToken token;  ///< null = pool-wide cancel flag
  };

  void worker_loop(std::size_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Item> queue_;
  std::size_t active_ = 0;
  bool shutting_down_ = false;
  std::atomic<bool> cancel_flag_{false};
  /// All threads ever spawned; retired slots are joined and left
  /// default-constructed by resize()'s reap, so the vector only grows by
  /// the net resize delta, not per churn event.
  std::vector<std::thread> workers_;
  std::size_t desired_ = 0;             ///< target live worker count
  std::size_t live_ = 0;                ///< workers not yet retired
  std::vector<std::size_t> exited_;     ///< retired indices awaiting join
};

}  // namespace essex
