// ESSEX: SimForecastService — the ForecastService's DES twin.
//
// The soak-scale questions about a forecast server — does admission hold
// the queue bounded over thousands of requests, what is the p95
// submit-to-result latency under mixed priorities and deadlines, do
// member-slot budgets rebalance cleanly as tenants come and go — cannot
// be asked of the real server with real 25-minute PE forecasts. This twin
// runs the SAME policy objects (AdmissionController, RequestQueue,
// RuntimeEstimator, esse::EnsembleSizeController) over the DES
// ClusterScheduler in simulated time, with the member *cost* modelled by
// the calibrated EsseJobShape and convergence modelled by converge_at —
// exactly the modelled-convergence idea of the Fig.-4 DES driver. Each
// running request's pool decisions are a workflow::EnsembleOrchestrator,
// as in the Fig.-4 DES driver; every request's members run through one
// service-wide fault layer, so a failed or evicted member is retried
// under its own id.
//
// Elasticity here is the DES rendering of "workers join/leave without
// restart": each running request holds a member-slot budget (how many
// member jobs it may keep in flight on the cluster); the service
// rebalances budgets whenever the tenant set changes, and a request under
// deadline pressure shrinks its own ensemble target through
// EnsembleSizeController::shrink() — graceful degradation instead of a
// blown deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mtc/execution_backend.hpp"
#include "mtc/fault.hpp"
#include "mtc/job.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "service/admission.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::service {

/// Server knobs of the DES twin (admission shared with the real server).
struct SimServiceConfig {
  AdmissionPolicy admission;
  /// Requests running concurrently; the rest wait in the priority queue.
  std::size_t max_inflight = 4;
  /// Per-member cost model (pert + pemodel CPU seconds at unit speed).
  mtc::EsseJobShape shape;
  /// M = headroom × N when filling a request's member pool.
  double pool_headroom = 1.1;
  /// Telemetry (nullable, not owned): `service.*` series stamped with
  /// simulated seconds — the same names the real server records.
  telemetry::Sink* sink = nullptr;
};

/// One simulated tenant request: ensemble geometry + service terms.
struct SimRequestSpec {
  std::size_t initial_members = 8;
  double growth = 2.0;
  std::size_t max_members = 32;
  std::size_t min_members = 2;
  /// Members completed at which the modelled convergence test passes.
  std::size_t converge_at = 16;
  int priority = 0;
  /// Absolute deadline in simulated seconds; +inf = none.
  double deadline_s = std::numeric_limits<double>::infinity();
  double expected_cost_s = 0.0;  ///< admission cost hint (0 = estimator)
  std::string label;
  // -- Multilevel member mix (DES rendering of esse::MultilevelParams) --
  /// 1 = single-fidelity (fields below ignored). With levels > 1 the
  /// member plan is fixed: members_per_level jobs per level, fine level
  /// first, dispatched level-major — no ensemble growth or deadline
  /// shrink (the plan IS the budget, mirroring the real runner).
  std::size_t levels = 1;
  /// Planned members per level, fine (level 0) first; size == levels.
  /// A level-l member costs kSimLevelCostRatio^l of a fine one.
  std::vector<std::size_t> members_per_level;
  /// Cores a fine member job reserves; coarse members always take 1, so
  /// the backfill scheduler packs them into slots a fine member leaves
  /// idle (the §7 nested-jobs policy).
  std::size_t fine_cores = 1;
};

/// Cost of a level-(l+1) member relative to a level-l one: factor-2
/// horizontal coarsening under an advective CFL (¼ points × ½ steps).
inline constexpr double kSimLevelCostRatio = 0.125;

/// Terminal record of one request (admitted or rejected).
struct SimRequestOutcome {
  std::uint64_t id = 0;
  RequestState state = RequestState::kRejected;
  Rejection rejection;  ///< meaningful when state == kRejected
  int priority = 0;
  std::string label;
  double submitted_s = 0.0;
  double started_s = 0.0;
  double finished_s = 0.0;
  // Member-level conservation (the zero-leak invariant):
  //   completed + cancelled + failed == dispatched  at finalisation.
  std::size_t members_dispatched = 0;
  std::size_t members_completed = 0;
  std::size_t members_cancelled = 0;
  /// Members lost after the fault layer's retries ran out.
  std::size_t members_failed = 0;
  /// Per-level completion counts (fine first); empty when levels == 1.
  std::vector<std::size_t> members_completed_per_level;
  bool converged = false;
  /// Finished below the original convergence goal (deadline shrink).
  bool degraded = false;
  bool deadline_met = true;

  double latency_s() const { return finished_s - submitted_s; }
};

/// The DES forecast server. Drive it from simulator events: schedule
/// submit() calls at arrival times, then run the simulator; every
/// admitted request executes as member jobs on the ClusterScheduler.
class SimForecastService {
 public:
  SimForecastService(mtc::Simulator& sim, mtc::ClusterScheduler& sched,
                     SimServiceConfig config);

  /// Admit or reject at the current simulated time. Rejections are
  /// recorded as terminal outcomes immediately. Returns the request id.
  std::uint64_t submit(const SimRequestSpec& spec);

  /// No request queued or running.
  bool idle() const { return queue_.empty() && active_.empty(); }

  /// Terminal outcomes in finalisation order (rejections included).
  const std::vector<SimRequestOutcome>& outcomes() const {
    return outcomes_;
  }
  ServiceStats stats() const { return stats_; }
  const RuntimeEstimator& estimator() const { return estimator_; }

  /// Sum over finalised outcomes of dispatched − completed − cancelled −
  /// failed: 0 iff every member job leaked nowhere.
  long long leaked_members() const;

 private:
  struct Active {
    SimRequestSpec spec;
    std::uint64_t id = 0;
    double submitted_s = 0.0;
    double started_s = 0.0;
    workflow::EnsembleOrchestrator orch;
    std::size_t slots = 0;  ///< member-slot budget (elasticity)
    double done_s = 0.0;  ///< time the goal was met/abandoned

    Active(const SimRequestSpec& s, double pool_headroom);
  };

  void pump();  ///< start queued requests while inflight slots remain
  void start(std::uint64_t id, const SimRequestSpec& spec, double submitted_s);
  /// Launch the members the request's orchestrator hands out.
  void launch(Active& a);
  /// The fault layer's final outcome for one member (any request).
  void on_resolved(std::size_t key, mtc::TaskOutcome outcome);
  mtc::SimExecutionBackend::Job member_job(std::size_t key) const;
  void begin_finish(Active& a);
  void finalize(std::uint64_t id);
  void rebalance_slots();

  mtc::Simulator& sim_;
  mtc::ClusterScheduler& sched_;
  SimServiceConfig config_;

  AdmissionController admission_;
  RuntimeEstimator estimator_;
  RequestQueue queue_;
  std::map<std::uint64_t, SimRequestSpec> queued_specs_;
  std::map<std::uint64_t, double> queued_at_;
  std::map<std::uint64_t, Active> active_;
  /// One backend + fault layer for every request: the backend claims the
  /// scheduler's single completion hook, and member keys encode
  /// (request, level, index) so resolution is exactly-once per member.
  std::unique_ptr<mtc::SimExecutionBackend> backend_;
  std::unique_ptr<mtc::FaultTolerantExecutor> exec_;
  std::vector<SimRequestOutcome> outcomes_;
  ServiceStats stats_;
  std::uint64_t next_id_ = 1;
};

}  // namespace essex::service
