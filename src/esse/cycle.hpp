// ESSEX: the numerics of one ESSE forecast/assimilation cycle (paper
// Fig. 2) — the cycle's knobs and result types, the one member
// integration, the multi-model surrogate run and the error-nowcast
// bootstrap.
//
// The loop that drives them (perturb → ensemble forecast → differ → SVD
// → convergence test → assimilate) is the Fig.-4 runner:
// workflow::run_parallel_forecast and workflow::run_assimilation_cycle
// (workflow/parallel_runner.hpp). The only other ensemble loop is the
// Fig.-3 serial reference the differential oracle compares it against
// (testkit::serial_reference_forecast).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "esse/analysis.hpp"
#include "esse/convergence.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "esse/multilevel.hpp"
#include "esse/perturbation.hpp"
#include "ocean/model.hpp"

namespace essex::esse {

/// Knobs for one forecast cycle.
struct CycleParams {
  PerturbationGenerator::Params perturbation;
  ConvergenceTest::Params convergence;
  EnsembleSizeController::Params ensemble;
  double forecast_hours = 24.0;   ///< simulation-time length of the forecast
  double variance_fraction = 0.99;  ///< subspace truncation
  std::size_t max_rank = 0;       ///< 0 = uncapped
  std::size_t threads = 1;        ///< worker threads for member runs
  bool stochastic_members = true;  ///< members feel model noise (dη)
  /// Localized analysis (DESIGN.md §14). Off by default: the global
  /// dense update, bitwise identical to the pre-localization cycle.
  /// When enabled, the analysis runs tiled per `tiling` and the differ's
  /// column store is sharded by the same tiling.
  LocalizationParams localization;
  ocean::TilingParams tiling;
  /// Multilevel (multi-fidelity) ensemble (DESIGN.md §15). Off by
  /// default (levels == 1): the single-level path, bitwise identical to
  /// the pre-multilevel cycle. When enabled, the MTC runner executes the
  /// planned per-level member mix instead of the adaptive
  /// `ensemble`-controller schedule (pool growth and headroom do not
  /// apply — the level layout is fixed up front so column weights are
  /// schedule-free).
  MultilevelParams multilevel;
  /// Analysis filter selection + multi-model surrogate knobs (DESIGN.md
  /// §16). The default — kSubspaceKalman — leaves the cycle bitwise
  /// identical to the pre-refactor path. When method == kMultiModel the
  /// forecast stage additionally integrates the deliberately-biased
  /// coarse surrogate and the analysis assimilates it as
  /// pseudo-observations.
  AnalysisParams analysis;
};

/// MTC execution accounting attached to a forecast by the Fig.-4 runner
/// (workflow::run_parallel_forecast); absent for the serial reference.
struct MtcAccounting {
  std::size_t members_submitted = 0;  ///< pool size M issued (M ≥ N)
  std::size_t members_cancelled = 0;  ///< killed on convergence (§4.1)
  std::size_t svd_runs = 0;           ///< decoupled SVD invocations
  std::uint64_t store_versions = 0;   ///< covariance snapshots promoted
  // Fault-layer accounting (zero for failure-free runs).
  std::size_t members_failed = 0;     ///< attempts that threw/were injected
  std::size_t members_retried = 0;    ///< re-submissions issued
  std::size_t speculative_launched = 0;
  std::size_t speculative_won = 0;
  // Member-level final outcomes: every submitted member ends in exactly
  // one bucket, so members_done + members_cancelled_final + members_lost
  // == members_submitted (the testkit conservation oracle).
  std::size_t members_done = 0;            ///< resolved kDone
  std::size_t members_cancelled_final = 0; ///< resolved kCancelled
  std::size_t members_lost = 0;       ///< retries exhausted, member gone
  bool degraded = false;              ///< converged with N′ < N members
};

/// Outcome of the uncertainty-forecast stage. The single forecast result
/// type for both the MTC runner and the serial reference: the runner
/// additionally fills `mtc`.
struct ForecastResult {
  la::Vector central_forecast;      ///< packed central (unperturbed) run
  ErrorSubspace forecast_subspace;  ///< dominant forecast error modes
  std::size_t members_run = 0;
  bool converged = false;
  std::vector<ConvergenceTest::Sample> convergence_history;
  std::optional<MtcAccounting> mtc;  ///< set by MTC runners only
  /// Coarse companion forecast (packed, fine-grid dimension), present
  /// only when CycleParams::analysis.method == kMultiModel — the
  /// multi-model combiner's second opinion, assimilated as
  /// pseudo-observations by the analysis stage.
  std::optional<la::Vector> surrogate_forecast;
};

/// Integrate one ensemble member from a packed initial condition over
/// [t0_hours, t0_hours + forecast_hours] and return the packed forecast.
/// A stochastic member feels model noise from the RNG stream
/// (seed ^ 0xA5A5A5A5, member_id + 1), independent of the perturbation
/// draws for the same id; otherwise the run is deterministic. The one
/// member integration shared by every ESSE loop (the MTC runner and the
/// serial reference), so a member is the same pure function of
/// (seed, id) wherever it runs. `packed_initial` is taken by value and
/// freed once unpacked: callers done with it std::move it in, so a busy
/// worker does not hold it through the run.
la::Vector run_member(const ocean::OceanModel& model,
                      la::Vector packed_initial, double t0_hours,
                      double forecast_hours, bool stochastic,
                      std::uint64_t seed, std::size_t member_id);

/// Integrate the multi-model surrogate: a deliberately-biased coarse
/// companion forecast on the coarsest level of a GridHierarchy built
/// from the fine model's grid per `analysis` (surrogate_levels /
/// surrogate_coarsen), prolonged back to the fine grid with
/// `surrogate_bias` added uniformly. Deterministic (no model noise) —
/// one extra cheap integration per cycle.
la::Vector run_surrogate_forecast(const ocean::OceanModel& model,
                                  const ocean::OceanState& initial,
                                  double t0_hours, double forecast_hours,
                                  const AnalysisParams& analysis);

/// Build an initial error subspace when no posterior from a previous
/// cycle exists: sample `n_samples` stochastic model integrations of
/// length `spinup_hours` about `initial` and take their dominant spread
/// modes. This is the "error nowcast" bootstrap.
ErrorSubspace bootstrap_subspace(const ocean::OceanModel& model,
                                 const ocean::OceanState& initial,
                                 double t0_hours, double spinup_hours,
                                 std::size_t n_samples,
                                 double variance_fraction,
                                 std::size_t max_rank, std::uint64_t seed,
                                 std::size_t threads = 1);

}  // namespace essex::esse
