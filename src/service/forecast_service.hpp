// ESSEX: ForecastService — a persistent, multi-tenant forecast server.
//
// The paper's operational picture (§2, Fig. 1) is a *standing* forecast
// office, not a batch script: procedures arrive on a schedule, each with a
// web-distribution deadline, and the compute harness persists across them.
// ForecastService is that server for the real (in-process) Fig.-4 runner:
// one long-lived elastic member-worker pool shared by every request, a
// priority/deadline request queue with admission control, and per-request
// handles with poll/wait/cancel. The DES twin (SimForecastService, same
// admission objects, simulated clock) carries the soak-scale experiments.
//
// Lifecycle of one request:
//   submit() → validate → admission decision → queued
//     → dispatched (≤ max_inflight at a time, priority/deadline/FIFO)
//     → runs on the shared member pool via service::execute_forecast
//     → kDone / kFailed (exception preserved) / kCancelled
//   or rejected up front with a structured Rejection (kRejected handle).
//
// Elasticity: each running request reports its desired member-worker
// count (pool fills and ensemble growth stages); the service sums the
// demands, clamps to [min_workers, max_workers] and resizes the shared
// pool — workers join and leave running ensembles without a restart, and
// the determinism contract holds because worker count never feeds the
// science (DESIGN.md §10).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.hpp"
#include "service/admission.hpp"
#include "service/runner_core.hpp"
#include "workflow/timeline.hpp"

namespace essex::service {

/// Server sizing and policy knobs.
struct ServiceConfig {
  /// Member-worker pool bounds. The pool starts at `min_workers` and,
  /// when `elastic`, tracks aggregate request demand within
  /// [min_workers, max_workers].
  std::size_t min_workers = 1;
  std::size_t max_workers = 8;
  /// Requests run concurrently on the shared pool (each gets its own
  /// differ/SVD orchestration thread from an internal pool this size).
  std::size_t max_inflight = 1;
  AdmissionPolicy admission;
  bool elastic = true;
  /// Service-level telemetry (`service.*` counters/gauges/histograms and
  /// per-request lifecycle events). Nullable, not owned. Distinct from
  /// each request's own sink, which keeps receiving `runner.*`/`esse.*`.
  telemetry::Sink* sink = nullptr;
};

/// One tenant's submission: the forecast itself plus its service terms.
/// The ForecastRequest's referenced model/state/subspace must outlive the
/// request's completion (same contract run_parallel_forecast always had).
struct ServiceRequest {
  workflow::ForecastRequest forecast;
  int priority = 0;
  /// Absolute deadline on the service clock (seconds since the service
  /// started); +inf = none. See deadline_from_timeline() for deriving one
  /// from a ForecastTimeline procedure's τ window.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Caller's runtime estimate for admission (0 = use the service's
  /// rolling estimator once it has completions).
  double expected_cost_s = 0.0;
  std::string label;  ///< tenant/procedure tag for telemetry events
};

/// Shared record behind a ForecastHandle (internal, but visible so the
/// handle can be header-only and copyable).
struct RequestRecord {
  explicit RequestRecord(std::uint64_t id_, const ServiceRequest& r)
      : id(id_), forecast(r.forecast), priority(r.priority),
        deadline_s(r.deadline_s), expected_cost_s(r.expected_cost_s),
        label(r.label) {}

  const std::uint64_t id;
  workflow::ForecastRequest forecast;
  const int priority;
  const double deadline_s;
  const double expected_cost_s;
  const std::string label;
  /// Admission size (workflow::forecast_work_units), set at submit();
  /// scales the estimator's per-unit completions back into runtimes.
  double work_units = 1.0;

  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  std::condition_variable cv;
  RequestState state = RequestState::kQueued;
  esse::ForecastResult result;
  std::exception_ptr error;  ///< set when state == kFailed
  Rejection rejection;       ///< set when state == kRejected
  double submitted_s = 0.0, started_s = 0.0, finished_s = 0.0;
};

/// The caller's view of one submitted request: poll state(), wait() for a
/// terminal state, cancel(), then read the result or the failure. Copies
/// share the record; handles may outlive the service (terminal states are
/// sealed at shutdown, so no wait can hang).
class ForecastHandle {
 public:
  ForecastHandle() = default;
  explicit ForecastHandle(std::shared_ptr<RequestRecord> rec)
      : rec_(std::move(rec)) {}

  bool valid() const { return rec_ != nullptr; }
  std::uint64_t id() const { return rec_ ? rec_->id : 0; }

  RequestState state() const;
  bool done() const;  ///< terminal: kDone/kFailed/kCancelled/kRejected

  /// Block until terminal; returns the terminal state.
  RequestState wait() const;
  /// Bounded wait; nullopt if still pending after `seconds`.
  std::optional<RequestState> wait_for(double seconds) const;

  /// Request cancellation. Queued: removed immediately (kCancelled).
  /// Running: the core aborts at its next check. Returns false if the
  /// request was already terminal.
  bool cancel();

  /// Wait, then: kDone → the result; kFailed → rethrows the forecast's
  /// exception; kCancelled/kRejected → throws PreconditionError carrying
  /// the reason. take_result() moves instead of copying.
  const esse::ForecastResult& result() const;
  esse::ForecastResult take_result();

  /// The structured rejection (meaningful when state() == kRejected).
  const Rejection& rejection() const { return rec_->rejection; }
  /// The preserved exception (null unless state() == kFailed).
  std::exception_ptr error() const;

 private:
  std::shared_ptr<RequestRecord> rec_;
};

class ForecastService {
 public:
  explicit ForecastService(ServiceConfig config);
  ~ForecastService();  ///< shutdown()

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Admit or reject. Never throws on a bad request: validation issues
  /// and admission refusals come back as a kRejected handle with a
  /// structured Rejection.
  ForecastHandle submit(const ServiceRequest& request);

  /// Block until no request is queued or running.
  void drain();

  /// Stop intake, cancel queued requests (kCancelled), flag running ones
  /// to cancel, and join every worker and timer thread. Idempotent; the
  /// destructor calls it. Handles stay usable afterwards.
  void shutdown();

  /// Seconds since the service started (the clock deadlines live on).
  double now_s() const;

  std::size_t queued() const;
  std::size_t inflight() const;
  /// Current live member-worker count.
  std::size_t workers() const;
  ServiceStats stats() const;
  const RuntimeEstimator& estimator() const { return estimator_; }

 private:
  void dispatcher_loop();
  void run_request(const std::shared_ptr<RequestRecord>& rec);
  void update_demand(std::uint64_t id, std::size_t workers_wanted);
  void apply_demand_locked();
  ForecastHandle reject(const ServiceRequest& request, RejectReason reason,
                        std::string message);
  static void seal(const std::shared_ptr<RequestRecord>& rec,
                   RequestState state);

  ServiceConfig config_;
  const double epoch_s_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< dispatcher + drain wakeups
  RequestQueue queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestRecord>>
      queued_records_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestRecord>>
      running_records_;
  std::uint64_t next_id_ = 1;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  bool stopped_ = false;
  ServiceStats stats_;
  AdmissionController admission_;
  RuntimeEstimator estimator_;

  /// Aggregate elasticity state: per-request desired worker counts.
  /// Guarded by demand_mu_ (never taken with mu_ held, and vice versa);
  /// the resize counters are atomics so stats() can read them lock-free.
  mutable std::mutex demand_mu_;
  std::map<std::uint64_t, std::size_t> demands_;
  std::atomic<std::size_t> grow_events_{0};
  std::atomic<std::size_t> shrink_events_{0};
  std::atomic<std::size_t> peak_workers_{0};

  std::unique_ptr<ThreadPool> member_pool_;    ///< shared, elastic
  std::unique_ptr<ThreadPool> orchestrators_;  ///< one slot per inflight
  std::thread dispatcher_;
};

namespace detail {

/// One decision of the elastic member pool's resize rule.
struct PoolResize {
  std::size_t previous = 0;  ///< the pool's target_count() before
  std::size_t target = 0;    ///< the target it has now
};

/// The elastic member pool's resize rule (ForecastService's, visible for
/// tests): move `pool` to `demand` member workers clamped to
/// [min_workers, max_workers] (and to at least 1). It compares against
/// the pool's target_count(), read once, not its live count: after a
/// shrink, busy workers stay live until their task ends, and a new
/// demand equal to that stale live count must still regrow the pool.
PoolResize resize_to_demand(ThreadPool& pool, std::size_t demand,
                            std::size_t min_workers,
                            std::size_t max_workers);

}  // namespace detail

/// Absolute service-clock deadline for procedure `k` of a timeline: the
/// procedure's forecaster window τ_end − τ_start (hours) scaled by
/// `service_seconds_per_hour` and anchored at `now_s`. The Fig.-1 contract
/// — the forecast is worthless after its web-distribution deadline —
/// rendered onto the service clock.
double deadline_from_timeline(const workflow::ForecastTimeline& timeline,
                              std::size_t k, double now_s,
                              double service_seconds_per_hour);

}  // namespace essex::service
