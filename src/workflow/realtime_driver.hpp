// ESSEX: the real-time forecasting experiment of Fig. 1 / §2.1.
//
// "During the experiment, for each prediction k, the forecaster repeats
// a set of tasks ... the processing of the currently available data and
// model, the computation of data-driven forecast simulations, and the
// study, selection and web-distribution of the best forecasts."
//
// run_realtime_experiment() plays a whole at-sea campaign against a
// hidden twin truth: for every forecast procedure on the timeline it
// forecasts the ensemble to the nowcast boundary, assimilates the
// observation batches available by the procedure's start, issues the
// forecast proper to the procedure's last prediction time, and scores
// everything against the truth — the cycle-over-cycle skill series a
// real-time exercise is judged by.
#pragma once

#include <cstddef>
#include <vector>

#include "esse/cycle.hpp"
#include "esse/verification.hpp"
#include "ocean/model.hpp"
#include "workflow/parallel_runner.hpp"
#include "workflow/timeline.hpp"

namespace essex::workflow {

struct RealtimeConfig {
  /// Per-procedure ensemble run; each procedure sets its own
  /// `cycle.forecast_hours` (last analysis → nowcast).
  ParallelRunnerConfig cycle;
  /// Initial-uncertainty bootstrap: spin-up length and sample count.
  double bootstrap_spinup_h = 12.0;
  std::size_t bootstrap_samples = 12;
  double bootstrap_inflation = 5.0;  ///< realistic IC error ≫ model noise
  /// Multiplicative inflation of the posterior spread handed to the next
  /// cycle — compensates error growth the subspace cannot represent
  /// (unresolved model error); 1.0 disables.
  double cycle_inflation = 1.3;
  std::size_t max_rank = 12;
  std::uint64_t truth_seed = 777;
};

/// Scores of one forecast procedure τ_k.
struct ProcedureReport {
  std::size_t procedure = 0;
  double nowcast_h = 0;        ///< analysis (nowcast) time
  double forecast_h = 0;       ///< last prediction time
  std::size_t obs_assimilated = 0;
  std::size_t members_run = 0;
  bool converged = false;
  esse::SkillScore nowcast_prior;   ///< central forecast vs truth @nowcast
  esse::SkillScore nowcast_posterior;  ///< analysis vs truth @nowcast
  esse::SkillScore forecast_skill;  ///< forecast proper vs truth @sim_end
  double spread_skill = 0;          ///< predicted spread / actual error
};

struct RealtimeReport {
  std::vector<ProcedureReport> procedures;
  /// Persistence baseline: RMSE of "no forecast, keep the initial state"
  /// at each procedure's nowcast (what skill is measured against).
  std::vector<double> persistence_rmse;
};

/// Run the experiment. The timeline must contain at least one procedure
/// and its procedures must be ordered by tau_start. Observations are
/// AOSN-like campaigns sampled from the twin truth at each nowcast.
RealtimeReport run_realtime_experiment(const ocean::OceanModel& model,
                                       const ocean::OceanState& initial,
                                       const ForecastTimeline& timeline,
                                       const RealtimeConfig& config);

}  // namespace essex::workflow
