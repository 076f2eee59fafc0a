#include "workflow/parallel_runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "ocean/state.hpp"

// The Fig.-4 execution loop itself and run_parallel_forecast() live in
// src/service/runner_core.cpp, so this translation unit keeps the
// validation surface the service uses for structured request rejection,
// plus the cycle that puts the ESSE analysis behind that forecast.

namespace essex::workflow {

namespace {

void check(std::vector<ValidationIssue>& issues, bool ok, const char* field,
           const char* message) {
  if (!ok) issues.push_back({field, message});
}

}  // namespace

std::vector<ValidationIssue> validate(const ParallelRunnerConfig& config) {
  std::vector<ValidationIssue> issues;
  const esse::CycleParams& cp = config.cycle;
  check(issues, config.pool_headroom >= 1.0, "config.pool_headroom",
        "pool headroom must be >= 1");
  check(issues, config.svd_min_new_members >= 1,
        "config.svd_min_new_members", "svd stride must be >= 1");
  check(issues, cp.forecast_hours > 0.0, "config.cycle.forecast_hours",
        "forecast length must be positive");
  check(issues, cp.variance_fraction > 0.0 && cp.variance_fraction <= 1.0,
        "config.cycle.variance_fraction",
        "variance fraction must lie in (0, 1]");
  check(issues,
        cp.convergence.similarity_threshold > 0.0 &&
            cp.convergence.similarity_threshold <= 1.0,
        "config.cycle.convergence.similarity_threshold",
        "similarity threshold must lie in (0, 1]");
  check(issues, cp.ensemble.initial >= 2, "config.cycle.ensemble.initial",
        "initial ensemble size must be >= 2");
  check(issues, cp.ensemble.growth > 1.0, "config.cycle.ensemble.growth",
        "growth factor must exceed 1");
  check(issues, cp.ensemble.max_members >= cp.ensemble.initial,
        "config.cycle.ensemble.max_members",
        "Nmax must be >= the initial size");
  check(issues, cp.ensemble.min_members <= cp.ensemble.max_members,
        "config.cycle.ensemble.min_members",
        "min_members floor must be <= Nmax");
  check(issues, cp.perturbation.white_noise >= 0.0,
        "config.cycle.perturbation.white_noise",
        "white-noise stddev must be >= 0");
  check(issues, config.fault.min_members >= 1, "config.fault.min_members",
        "graceful-degradation floor must be >= 1");
  // A floor above the largest ensemble the request can ever run would
  // only trip after every member had been integrated.
  const std::size_t most_members = cp.multilevel.enabled()
                                       ? cp.multilevel.total_members()
                                       : cp.ensemble.max_members;
  check(issues, config.fault.min_members <= most_members,
        "config.fault.min_members",
        "graceful-degradation floor exceeds the most members the request "
        "can run (Nmax, or the multilevel member total)");
  check(issues,
        config.inject.segment.probability >= 0.0 &&
            config.inject.segment.probability <= 1.0,
        "config.inject.segment.probability",
        "failure probability must lie in [0, 1]");
  check(issues, !cp.localization.enabled || cp.localization.radius_km > 0.0,
        "config.cycle.localization.radius_km",
        "localization radius must be positive when localization is on");
  check(issues, cp.tiling.tiles_x >= 1, "config.cycle.tiling.tiles_x",
        "tile count must be >= 1");
  check(issues, cp.tiling.tiles_y >= 1, "config.cycle.tiling.tiles_y",
        "tile count must be >= 1");
  // Multilevel member-mix constraints (DESIGN.md §15); grid-dependent
  // coarsenability checks live on the request overload.
  const esse::MultilevelParams& ml = cp.multilevel;
  check(issues, ml.levels >= 1, "config.cycle.multilevel.levels",
        "hierarchy needs at least the fine level");
  if (ml.enabled()) {
    check(issues, ml.coarsen >= 2, "config.cycle.multilevel.coarsen",
          "coarsening factor must be >= 2");
    if (ml.members_per_level.size() != ml.levels) {
      issues.push_back({"config.cycle.multilevel.members_per_level",
                        "must name a member count for every level"});
    } else {
      check(issues, ml.members_per_level[0] >= 2,
            "config.cycle.multilevel.members_per_level",
            "the fine level needs >= 2 members");
      bool level_sizes_ok = true;
      for (std::size_t n : ml.members_per_level)
        if (n == 1) level_sizes_ok = false;
      check(issues, level_sizes_ok,
            "config.cycle.multilevel.members_per_level",
            "a used level needs >= 2 members (weights divide by n_l - 1)");
    }
    if (!ml.level_weights.empty()) {
      if (ml.level_weights.size() != ml.members_per_level.size()) {
        issues.push_back({"config.cycle.multilevel.level_weights",
                          "must match members_per_level in size"});
      } else {
        bool nonneg = true;
        double used_sum = 0.0;
        for (std::size_t l = 0; l < ml.level_weights.size(); ++l) {
          if (ml.level_weights[l] < 0.0) nonneg = false;
          if (ml.members_per_level[l] > 0) used_sum += ml.level_weights[l];
        }
        check(issues, nonneg, "config.cycle.multilevel.level_weights",
              "pooling weights must be >= 0");
        check(issues, used_sum > 0.0,
              "config.cycle.multilevel.level_weights",
              "weights over the used levels must not all vanish");
      }
    }
    if (!ml.cost_ratios.empty()) {
      bool ratios_ok = ml.cost_ratios.size() == ml.levels;
      if (ratios_ok)
        for (double r : ml.cost_ratios)
          if (!(r > 0.0)) ratios_ok = false;
      check(issues, ratios_ok, "config.cycle.multilevel.cost_ratios",
            "cost ratios must cover every level and be positive");
    }
    check(issues, !cp.localization.enabled,
          "config.cycle.multilevel.levels",
          "multilevel ensembles do not compose with localized analysis "
          "yet — run one or the other");
  }
  // Analysis-method selection (DESIGN.md §16).
  const esse::AnalysisParams& ap = cp.analysis;
  check(issues, esse::is_registered(ap.method),
        "config.cycle.analysis.method",
        "analysis method is not registered");
  if (ap.method == esse::AnalysisMethod::kMultiModel) {
    check(issues, ap.surrogate_levels >= 2,
          "config.cycle.analysis.surrogate_levels",
          "the multi-model surrogate needs levels >= 2");
    check(issues, ap.surrogate_coarsen >= 2,
          "config.cycle.analysis.surrogate_coarsen",
          "surrogate coarsening factor must be >= 2");
    check(issues, ap.pseudo_obs_stride >= 1,
          "config.cycle.analysis.pseudo_obs_stride",
          "pseudo-observation stride must be >= 1");
    check(issues, ap.pseudo_variance_inflation > 0.0,
          "config.cycle.analysis.pseudo_variance_inflation",
          "pseudo-observation variance inflation must be positive");
    check(issues, ap.pseudo_variance_floor >= 0.0,
          "config.cycle.analysis.pseudo_variance_floor",
          "pseudo-observation variance floor must be >= 0");
  }
  return issues;
}

std::vector<ValidationIssue> validate(const ForecastRequest& request) {
  std::vector<ValidationIssue> issues = validate(request.config);
  if (request.subspace.empty()) {
    issues.push_back({"request.subspace",
                      "initial error subspace must not be empty"});
  } else if (ocean::OceanState::packed_size(request.model.grid()) !=
             request.subspace.dim()) {
    std::ostringstream os;
    os << "initial subspace dimension " << request.subspace.dim()
       << " does not match the model's packed state size "
       << ocean::OceanState::packed_size(request.model.grid());
    issues.push_back({"request.subspace", os.str()});
  }
  // Tiling geometry checks need the grid, so they live on the request.
  const esse::CycleParams& cp = request.config.cycle;
  const ocean::Grid3D& grid = request.model.grid();
  if (cp.multilevel.enabled()) {
    // Every coarsened level must keep the 3x3 Grid3D minimum.
    std::size_t nx = grid.nx(), ny = grid.ny();
    const std::size_t f = std::max<std::size_t>(cp.multilevel.coarsen, 2);
    for (std::size_t l = 1; l < cp.multilevel.levels; ++l) {
      nx = (nx + f - 1) / f;
      ny = (ny + f - 1) / f;
      if (nx < 3 || ny < 3) {
        std::ostringstream os;
        os << "level " << l << " coarsens the grid to " << nx << "x" << ny
           << ", below the 3x3 minimum";
        issues.push_back({"config.cycle.multilevel.levels", os.str()});
        break;
      }
    }
  }
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel &&
      cp.analysis.surrogate_coarsen >= 2) {
    // The surrogate's coarsest level obeys the same 3x3 floor.
    std::size_t nx = grid.nx(), ny = grid.ny();
    for (std::size_t l = 1; l < cp.analysis.surrogate_levels; ++l) {
      nx = (nx + cp.analysis.surrogate_coarsen - 1) /
           cp.analysis.surrogate_coarsen;
      ny = (ny + cp.analysis.surrogate_coarsen - 1) /
           cp.analysis.surrogate_coarsen;
      if (nx < 3 || ny < 3) {
        std::ostringstream os;
        os << "surrogate level " << l << " coarsens the grid to " << nx
           << "x" << ny << ", below the 3x3 minimum";
        issues.push_back(
            {"config.cycle.analysis.surrogate_levels", os.str()});
        break;
      }
    }
  }
  if (cp.localization.enabled && cp.tiling.tiles_x >= 1 &&
      cp.tiling.tiles_y >= 1) {
    if (cp.tiling.tiles_x > grid.nx()) {
      std::ostringstream os;
      os << "tiles_x " << cp.tiling.tiles_x << " exceeds the grid's nx "
         << grid.nx();
      issues.push_back({"config.cycle.tiling.tiles_x", os.str()});
    }
    if (cp.tiling.tiles_y > grid.ny()) {
      std::ostringstream os;
      os << "tiles_y " << cp.tiling.tiles_y << " exceeds the grid's ny "
         << grid.ny();
      issues.push_back({"config.cycle.tiling.tiles_y", os.str()});
    }
    if (cp.tiling.tiles_x <= grid.nx() && cp.tiling.tiles_y <= grid.ny()) {
      // The smallest owned extent of the balanced partition.
      const std::size_t min_ext = std::min(grid.nx() / cp.tiling.tiles_x,
                                           grid.ny() / cp.tiling.tiles_y);
      if (cp.tiling.halo_cells >= min_ext) {
        std::ostringstream os;
        os << "halo of " << cp.tiling.halo_cells
           << " cells reaches past the smallest tile extent (" << min_ext
           << " cells): blending would span non-neighbouring tiles";
        issues.push_back({"config.cycle.tiling.halo_cells", os.str()});
      }
    }
  }
  return issues;
}

double forecast_work_units(const ForecastRequest& request) {
  const double m = static_cast<double>(
      ocean::OceanState::packed_size(request.model.grid()));
  const double dt = request.model.max_stable_dt_hours();
  const double steps =
      std::max(1.0, std::ceil(request.config.cycle.forecast_hours / dt));
  const esse::CycleParams& cp = request.config.cycle;
  // The multi-model surrogate is one extra deterministic integration on
  // the coarsest hierarchy level, discounted like a coarse member.
  double surrogate = 0.0;
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    surrogate =
        std::pow(static_cast<double>(cp.analysis.surrogate_coarsen),
                 -3.0 * static_cast<double>(cp.analysis.surrogate_levels -
                                            1)) *
        steps * m;
  }
  const esse::MultilevelParams& ml = cp.multilevel;
  if (!ml.enabled()) {
    // Worst-case planned ensemble: admission should not bet on early
    // convergence (the estimator's EWMA absorbs the systematic ratio).
    const double n = static_cast<double>(cp.ensemble.max_members);
    return n * steps * m + surrogate;
  }
  // Fixed per-level member mix, coarse members discounted by the CFL
  // cost ratio (points × steps shrink together).
  return ml.total_cost_units() * steps * m + surrogate;
}

std::string describe(const std::vector<ValidationIssue>& issues) {
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i) os << "; ";
    os << issues[i].field << ": " << issues[i].message;
  }
  return os.str();
}

CycleOutcome run_assimilation_cycle(const ForecastRequest& request,
                                    const esse::ObsSet& obs) {
  CycleOutcome out;
  out.forecast = run_parallel_forecast(request);
  const esse::CycleParams& cp = request.config.cycle;
  esse::AnalysisOptions options;
  options.localization = cp.localization;
  options.tiling = cp.tiling;
  options.threads = cp.threads;
  options.grid = &request.model.grid();
  options.method = cp.analysis.method;
  options.sink = request.sink;
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    ESSEX_REQUIRE(out.forecast.surrogate_forecast.has_value(),
                  "multi-model analysis needs the surrogate forecast");
    options.multi_model.surrogate = &*out.forecast.surrogate_forecast;
    options.multi_model.stride = cp.analysis.pseudo_obs_stride;
    options.multi_model.variance_inflation =
        cp.analysis.pseudo_variance_inflation;
    options.multi_model.variance_floor = cp.analysis.pseudo_variance_floor;
  }
  out.analysis = esse::analyze(out.forecast.central_forecast,
                               out.forecast.forecast_subspace, obs, options);
  return out;
}

}  // namespace essex::workflow
