// ESSEX: the real (in-process) Fig. 4 parallel ESSE runner.
//
// Runs actual ocean-model ensemble members on a thread pool with the MTC
// semantics of §4.1: a task pool of size M ≥ N, a continuously-updated
// differ, an SVD/convergence thread reading snapshots through the
// triple-buffer covariance store, cancellation of queued members on
// convergence, and staged pool growth. This is the scientific counterpart
// of the DES driver in esse_workflow_sim.hpp — same structure, real
// numbers.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "esse/analysis.hpp"
#include "esse/convergence.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "mtc/fault.hpp"
#include "ocean/model.hpp"
#include "workflow/covariance_store.hpp"

namespace essex::telemetry {
class Sink;
}

namespace essex::workflow {

/// Configuration of the real parallel runner (numerics shared with
/// esse::CycleParams).
struct ParallelRunnerConfig {
  esse::CycleParams cycle;     ///< perturbation/convergence/size knobs
  double pool_headroom = 1.25; ///< M = headroom × N
  std::size_t svd_min_new_members = 4;  ///< snapshot stride for the SVD
  /// Recovery policy: a member whose attempt throws (or is injected to
  /// fail) is resubmitted with jittered backoff through the same
  /// FaultTolerantExecutor the DES driver uses.
  mtc::FaultPolicy fault;
  /// Failure injection for tests/benches: attempt (member, k) throws
  /// with `inject.segment.probability`, drawn from a per-attempt RNG
  /// stream.
  mtc::FaultInjection inject;
  /// Test hook, called on the worker thread just before a finished
  /// member's forecast is absorbed into the differ. The determinism
  /// harness uses it to impose adversarial absorption orders (hold some
  /// members back until others have landed); the forecast result must be
  /// bitwise identical no matter what this does. Leave empty in
  /// production.
  std::function<void(std::size_t member_id)> arrival_hook;
};

/// Everything one forecast invocation needs, in one place: adding a knob
/// here no longer ripples through every example/test/bench call site.
/// The referenced model/state/subspace must outlive the call.
struct ForecastRequest {
  const ocean::OceanModel& model;
  const ocean::OceanState& initial;
  const esse::ErrorSubspace& subspace;
  double t0_hours = 0.0;
  ParallelRunnerConfig config{};
  /// Optional telemetry sink (nullable, not owned). The runner records
  /// `runner.*` counters/histograms with wall-clock spans for member and
  /// SVD work (and the `runner.convergence` ρ stream); the differ, the
  /// SVD and run_assimilation_cycle's analysis record into it too.
  telemetry::Sink* sink = nullptr;
};

/// One named problem with a request's configuration. A server must be
/// able to *reject* a malformed request instead of aborting, so the
/// validation surface returns data rather than firing ESSEX_REQUIRE:
/// the ForecastService maps a non-empty issue list onto a structured
/// kInvalidRequest rejection, while the one-shot entry points join the
/// messages into the PreconditionError they always threw.
struct ValidationIssue {
  std::string field;    ///< dotted path, e.g. "config.pool_headroom"
  std::string message;  ///< human-readable constraint that failed
};

/// Check every documented constraint of the runner configuration.
/// Returns an empty vector when the config is well-formed.
std::vector<ValidationIssue> validate(const ParallelRunnerConfig& config);

/// Check the full request: the config's constraints plus the
/// state-vs-subspace dimension agreement.
std::vector<ValidationIssue> validate(const ForecastRequest& request);

/// Join issues into one "field: message; field: message" line (for
/// exceptions and rejection payloads). Empty string for no issues.
std::string describe(const std::vector<ValidationIssue>& issues);

/// Admission work units of one request: planned ensemble cost in
/// (members × model steps × packed state size), with multilevel member
/// mixes discounted by their per-level cost ratios. The ForecastService
/// feeds this to the RuntimeEstimator so its EWMA tracks seconds *per
/// work unit* — a burst of small requests can no longer poison the
/// admission estimate for a large one (and vice versa).
double forecast_work_units(const ForecastRequest& request);

/// Run the uncertainty forecast with the Fig. 4 pipeline on real threads.
/// Returns the unified forecast result; `result.mtc` carries the MTC
/// accounting (pool size, cancellations, SVD runs, store versions) fed by
/// the recorded metrics.
///
/// A thin wrapper over service::execute_forecast, the loop the
/// ForecastService runs for every request: it runs the request on a
/// private pool of `config.cycle.threads` workers (at least one) on the
/// calling thread, with no dispatcher, admission or handle. Validation
/// issues throw PreconditionError. The definition lives in
/// src/service/runner_core.cpp; link essex_service.
///
/// Determinism contract (DESIGN.md §10): for a fixed configuration and
/// seed the returned central forecast, subspace, convergence history and
/// members_run are bitwise identical for any thread count and any member
/// completion order. Convergence is checked on a fixed milestone schedule
/// (ensemble sizes k·svd_min_new_members) over the canonical contiguous
/// member-id prefix, so which members feed each check — and which check
/// declares convergence — never depends on scheduling. Only the wall-
/// clock fields of `result.mtc` (timings, store versions, retry counts
/// under real faults) remain timing-dependent.
esse::ForecastResult run_parallel_forecast(const ForecastRequest& request);

/// Both stages of one ESSE cycle (paper Fig. 2).
struct CycleOutcome {
  esse::ForecastResult forecast;
  esse::AnalysisResult analysis;
};

/// Full cycle: run_parallel_forecast(request), then the ESSE analysis of
/// its forecast against `obs`, configured from `request.config.cycle`
/// (localization, tiling, threads, method and multi-model surrogate) and
/// recording into `request.sink`. Graceful degradation has one floor,
/// `config.fault.min_members`: the runner refuses a forecast built from
/// fewer survivors, so no analysis ever runs below it.
CycleOutcome run_assimilation_cycle(const ForecastRequest& request,
                                    const esse::ObsSet& obs);

}  // namespace essex::workflow
