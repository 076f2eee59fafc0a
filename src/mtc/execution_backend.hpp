// ESSEX: the unified execution API both Fig.-4 drivers submit through.
//
// The DES workflow driver (esse_workflow_sim) and the real thread-pool
// runner (parallel_runner) used to own divergent execution paths — the
// former over ClusterScheduler's JobStatus, the latter over raw
// thread-pool exceptions. ExecutionBackend abstracts the four things the
// fault layer needs — submit / cancel / poll and a terminal TaskReport
// stream — plus a clock and one-shot timers, so FaultTolerantExecutor is
// written exactly once and both drivers inherit retry, speculation and
// graceful degradation.
//
//  * SimExecutionBackend wraps a ClusterScheduler: tasks are simulated
//    member jobs, time is Simulator time, eviction comes from the node
//    outage model.
//  * ThreadExecutionBackend wraps the in-process ThreadPool: tasks are
//    real member closures, exceptions become TaskOutcome::kFailed, time
//    is the wall clock and timers run on a dedicated timer thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "mtc/fault.hpp"
#include "mtc/job.hpp"
#include "mtc/scheduler.hpp"

namespace essex::mtc {

/// Map a terminal JobStatus onto the unified TaskOutcome.
TaskOutcome to_outcome(JobStatus status);

/// Abstract submit/cancel/poll surface shared by the DES scheduler and
/// the real thread pool.
class ExecutionBackend {
 public:
  using ReportHook = std::function<void(const TaskReport&)>;

  virtual ~ExecutionBackend() = default;

  /// Launch attempt `attempt` of ensemble member `member`. Returns the
  /// attempt's TaskId (> 0). The report hook fires exactly once per
  /// submitted attempt, at its terminal transition.
  virtual TaskId submit(std::size_t member, std::size_t attempt) = 0;

  /// Cancel a queued or running attempt. Exact in the DES; cooperative
  /// (flag-based) for running real threads. No-op once terminal.
  virtual void cancel(TaskId id) = 0;

  /// Snapshot of an attempt's current lifecycle state.
  virtual TaskReport poll(TaskId id) const = 0;

  /// Backend clock: simulated seconds (DES) or wall seconds (threads).
  virtual double now() const = 0;

  /// One-shot timer on the backend's clock (backoff, timeouts,
  /// straggler scans). Timers may be dropped at backend teardown.
  virtual void after(double delay_s, std::function<void()> fn) = 0;

  /// Expected single-attempt runtime; 0 = unknown (the fault layer then
  /// estimates it from completed attempts).
  virtual double expected_runtime_s() const { return 0.0; }

  /// Shortest attempt timeout the backend's clock can honour; 0 = no
  /// floor. The fault layer's timeout is a multiple of the expected
  /// runtime, and a budget inside the clock's own jitter kills healthy
  /// attempts.
  virtual double min_timeout_s() const { return 0.0; }

  /// Install the terminal-report hook (single slot, not owned).
  virtual void set_report_hook(ReportHook hook) = 0;
};

/// ExecutionBackend over the DES ClusterScheduler. Claims the
/// scheduler's completion hook for the backend's lifetime; drivers
/// observe completions through the fault layer instead.
class SimExecutionBackend final : public ExecutionBackend {
 public:
  /// One simulated attempt: its job body and the cores it reserves.
  struct Job {
    ClusterScheduler::JobBody body;
    std::size_t cores = 1;
  };
  /// Builds the simulated job for (member, attempt).
  using BodyFactory =
      std::function<Job(std::size_t member, std::size_t attempt)>;

  SimExecutionBackend(ClusterScheduler& sched, BodyFactory factory,
                      double expected_runtime_s = 0.0);
  ~SimExecutionBackend() override;

  TaskId submit(std::size_t member, std::size_t attempt) override;
  void cancel(TaskId id) override;
  TaskReport poll(TaskId id) const override;
  double now() const override;
  void after(double delay_s, std::function<void()> fn) override;
  double expected_runtime_s() const override { return expected_runtime_; }
  void set_report_hook(ReportHook hook) override { hook_ = std::move(hook); }

 private:
  struct TaskInfo {
    std::size_t member = 0;
    std::size_t attempt = 0;
  };
  TaskReport report_for(JobId job, const TaskInfo& info) const;

  ClusterScheduler& sched_;
  BodyFactory factory_;
  double expected_runtime_ = 0.0;
  ReportHook hook_;
  std::unordered_map<JobId, TaskInfo> tasks_;
};

/// ExecutionBackend over the in-process ThreadPool: member closures,
/// exception capture, cooperative cancellation and a timer thread.
class ThreadExecutionBackend final : public ExecutionBackend {
 public:
  /// Runs (member, attempt) to completion; throwing reports kFailed.
  /// `cancelled` turns true when the attempt is cancelled mid-run —
  /// long-running bodies may poll it and bail out early.
  using TaskFn = std::function<void(std::size_t member, std::size_t attempt,
                                    const std::atomic<bool>& cancelled)>;

  ThreadExecutionBackend(ThreadPool& pool, TaskFn fn);
  ~ThreadExecutionBackend() override;

  TaskId submit(std::size_t member, std::size_t attempt) override;
  void cancel(TaskId id) override;
  TaskReport poll(TaskId id) const override;
  double now() const override;
  void after(double delay_s, std::function<void()> fn) override;
  void set_report_hook(ReportHook hook) override;

  /// On the wall clock an attempt can stall for milliseconds without
  /// being hung (preemption on a loaded host, timer-thread latency). For
  /// sub-millisecond members a few times the median runtime lies inside
  /// that jitter, and each healthy attempt it killed would stall its
  /// request for the retry backoff.
  double min_timeout_s() const override { return 0.1; }

  /// Block until every attempt submitted through this backend has fully
  /// retired from the pool — ran to completion, or was skipped by a
  /// worker after cancellation. Unlike ThreadPool::wait_idle() this waits
  /// only on *this backend's* tasks, so concurrent forecasts sharing one
  /// persistent pool (ForecastService) tear down independently. After it
  /// returns, no pool worker can re-enter this backend.
  void drain_tasks();

  /// Join the timer thread and drop pending timers. Call after
  /// drain_tasks() and before destroying whatever the report hook points
  /// at.
  void shutdown_timers();

 private:
  struct TaskRec {
    std::size_t member = 0;
    std::size_t attempt = 0;
    TaskState state = TaskState::kQueued;
    TaskOutcome outcome = TaskOutcome::kDone;
    double submitted = 0.0;
    double started = 0.0;
    double finished = 0.0;
    bool cancel_requested = false;
    std::shared_ptr<std::atomic<bool>> token;
  };

  bool begin_task(TaskId id);
  void finish_task(TaskId id, bool threw);
  TaskReport poll_locked(TaskId id) const;
  void timer_loop();

  ThreadPool& pool_;
  TaskFn fn_;
  ReportHook hook_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::unordered_map<TaskId, TaskRec> tasks_;
  TaskId next_id_ = 1;
  std::vector<std::future<void>> futures_;  ///< one per submitted attempt

  // Timer thread state.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::multimap<double, std::function<void()>> timers_;  // by deadline
  bool timer_shutdown_ = false;
  std::thread timer_thread_;
};

}  // namespace essex::mtc
