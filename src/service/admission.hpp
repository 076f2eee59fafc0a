// ESSEX: admission control and request queueing for ForecastService.
//
// The policy layer is deliberately clock- and backend-free: the same
// AdmissionController / RequestQueue / RuntimeEstimator triple sits under
// the real-thread ForecastService (wall clock, persistent ThreadPool) and
// the DES SimForecastService (simulated clock, ClusterScheduler), so the
// soak bench over the DES exercises exactly the admission arithmetic the
// live server runs. A request is either admitted or handed a *structured*
// rejection — the server never aborts on a malformed or infeasible
// request (paper §2: forecasts are issued against deadlines; a request
// that cannot meet its deadline is refused up front, not half-run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>

namespace essex::service {

/// Why a submit() was refused.
enum class RejectReason {
  kQueueFull,           ///< bounded request queue at capacity
  kDeadlineInfeasible,  ///< cannot finish by the deadline even if admitted
  kInvalidRequest,      ///< request failed validation (workflow::validate)
  kShuttingDown,        ///< service no longer accepts work
};

std::string to_string(RejectReason reason);

/// The structured rejection a refused submit carries.
struct Rejection {
  RejectReason reason = RejectReason::kQueueFull;
  std::string message;  ///< numbers behind the decision, human-readable
};

/// Where a submitted request is in its service lifecycle. Shared by the
/// real-thread ForecastService and the DES SimForecastService.
enum class RequestState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< the forecast threw; the exception is preserved
  kCancelled,  ///< cancelled while queued or mid-run
  kRejected,   ///< refused at admission; see the Rejection
};

std::string to_string(RequestState s);

/// Lifetime counters both servers expose (point-in-time snapshot).
struct ServiceStats {
  std::size_t submitted = 0;  ///< submit() calls, admitted or not
  std::size_t admitted = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_invalid = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t completed = 0;  ///< kDone
  std::size_t failed = 0;     ///< kFailed
  std::size_t cancelled = 0;  ///< kCancelled (queued or running)
  std::size_t deadline_missed = 0;  ///< finished kDone past its deadline
  /// Elasticity events: shared-pool resizes (real server) or member-slot
  /// budget changes (DES server) — workers joining/leaving running work.
  std::size_t pool_grow_events = 0;
  std::size_t pool_shrink_events = 0;
  std::size_t peak_queue = 0;
  std::size_t peak_workers = 0;
};

/// Knobs of the admission decision.
struct AdmissionPolicy {
  /// Bounded queue: submits beyond this many *queued* (not yet running)
  /// requests are rejected kQueueFull.
  std::size_t max_queued = 256;
  /// Safety multiplier on the estimated service time before comparing
  /// against the deadline (absorbs estimate noise and queue jitter).
  double runtime_safety = 1.25;
};

/// Rolling estimate of service cost, fed by completions. Exponentially
/// weighted so a drifting workload mix tracks quickly.
///
/// Observations are normalised to cost *per work unit* (ensemble size ×
/// steps × state size, from the ticket) rather than raw service time: a
/// single global EWMA over raw seconds lets a burst of small requests
/// poison the estimate used to admit large ones — and a multilevel
/// coarse/fine member mix makes request costs levels-of-magnitude
/// heterogeneous, so the raw-seconds form flips admission decisions.
class RuntimeEstimator {
 public:
  explicit RuntimeEstimator(double alpha = 0.2) : alpha_(alpha) {}

  /// Record a completion: `service_time_s` spent on `work_units` of
  /// work. Unit-cost callers may omit the units (the pre-normalisation
  /// behaviour).
  void observe(double service_time_s, double work_units = 1.0);
  /// Estimated service time for a request of `work_units`; 0 until the
  /// first observation.
  double estimate_s(double work_units = 1.0) const {
    return per_unit_ * work_units;
  }
  /// The rolling seconds-per-work-unit itself.
  double per_unit_s() const { return per_unit_; }
  std::size_t samples() const { return samples_; }

 private:
  double alpha_;
  double per_unit_ = 0.0;
  std::size_t samples_ = 0;
};

/// Everything the admission decision needs to know about one request.
struct AdmissionTicket {
  int priority = 0;
  /// Absolute deadline on the service clock; +inf = none.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Caller-supplied cost estimate; 0 = use the estimator.
  double expected_cost_s = 0.0;
  /// Size of this request in work units (workflow::forecast_work_units);
  /// scales the estimator's per-unit view back up to a runtime. 1 keeps
  /// unit-cost semantics for callers without a size signal.
  double work_units = 1.0;
};

/// A snapshot of the server's load, supplied by the service layer.
struct ServerLoad {
  double now_s = 0.0;            ///< current service-clock time
  std::size_t queued = 0;        ///< requests waiting to start
  std::size_t queued_ahead = 0;  ///< queued at this priority or higher
  std::size_t inflight = 0;      ///< requests currently running
  std::size_t max_inflight = 1;  ///< concurrency the server offers
};

/// The pure admission decision: nullopt = admit, else the rejection.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionPolicy policy) : policy_(policy) {}

  std::optional<Rejection> decide(const AdmissionTicket& ticket,
                                  const ServerLoad& load,
                                  const RuntimeEstimator& estimator) const;

  const AdmissionPolicy& policy() const { return policy_; }

 private:
  AdmissionPolicy policy_;
};

/// Priority/deadline-ordered bounded queue of request ids. Dispatch order:
/// higher priority first, then earlier deadline, then FIFO by arrival.
///
/// The queue stamps arrival order itself in push() — callers do not (and
/// must not) manage sequence numbers. Before this, equal-(priority,
/// deadline) ordering hung on caller discipline: two entries pushed with
/// the same seq compared equivalent, and the backing std::set silently
/// dropped the second request.
class RequestQueue {
 public:
  struct Entry {
    std::uint64_t id = 0;
    int priority = 0;
    double deadline_s = std::numeric_limits<double>::infinity();
    /// Arrival stamp, assigned by push(); any caller-supplied value is
    /// overwritten.
    std::uint64_t seq = 0;

    bool operator<(const Entry& o) const {
      if (priority != o.priority) return priority > o.priority;
      if (deadline_s != o.deadline_s) return deadline_s < o.deadline_s;
      if (seq != o.seq) return seq < o.seq;
      return id < o.id;  // total order: ids are unique, nothing drops
    }
  };

  void push(Entry entry) {
    entry.seq = next_seq_++;
    entries_.insert(entry);
  }
  /// Best entry per the dispatch order; nullopt when empty.
  std::optional<Entry> pop();
  /// Remove a queued request by id (cancellation); false if absent.
  bool erase(std::uint64_t id);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Entries at `priority` or higher (the queue ahead of a new arrival).
  std::size_t count_at_or_above(int priority) const;

 private:
  std::set<Entry> entries_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace essex::service
