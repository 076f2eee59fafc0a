// A full simulated at-sea campaign (paper Fig. 1 / §2.1): four forecast
// procedures over a six-day Monterey Bay experiment, each assimilating
// the observation batches available at its start, scored cycle-by-cycle
// against the hidden twin truth.
//
// Build & run:  ./build/examples/realtime_experiment
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "ocean/monterey.hpp"
#include "workflow/realtime_driver.hpp"
#include "workflow/timeline.hpp"

int main() {
  using namespace essex;
  using namespace essex::workflow;

  ocean::Scenario sc = ocean::make_monterey_scenario(28, 24, 5);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);

  // Six days of ocean time, daily observation batches available ~2 h
  // after measurement, four forecast procedures.
  ForecastTimeline tl(0.0, 144.0);
  for (int day = 0; day < 5; ++day) {
    const double start = 24.0 * day;
    tl.add_observation_period({start, start + 24.0, start + 26.0,
                               "day " + std::to_string(day + 1)});
  }
  tl.add_procedure({30.0, 36.0, 0.0, 72.0});
  tl.add_procedure({54.0, 60.0, 0.0, 96.0});
  tl.add_procedure({78.0, 84.0, 0.0, 120.0});
  tl.add_procedure({102.0, 108.0, 0.0, 144.0});
  std::printf("%s\n", tl.render().c_str());

  RealtimeConfig cfg;
  cfg.cycle.cycle.ensemble = {12, 2.0, 24};
  cfg.cycle.cycle.convergence = {0.96, 10};
  cfg.cycle.cycle.max_rank = 10;
  cfg.cycle.svd_min_new_members = 6;
  cfg.max_rank = 10;

  RealtimeReport report =
      run_realtime_experiment(model, sc.initial, tl, cfg);

  Table t("real-time campaign: per-procedure skill vs hidden truth");
  t.set_header({"tau", "nowcast (h)", "obs", "members", "prior rmse",
                "posterior rmse", "forecast rmse", "spread/skill",
                "persistence rmse"});
  for (std::size_t k = 0; k < report.procedures.size(); ++k) {
    const auto& p = report.procedures[k];
    t.add_row({std::to_string(p.procedure), Table::num(p.nowcast_h, 0),
               std::to_string(p.obs_assimilated),
               std::to_string(p.members_run),
               Table::num(p.nowcast_prior.rmse, 4),
               Table::num(p.nowcast_posterior.rmse, 4),
               Table::num(p.forecast_skill.rmse, 4),
               Table::num(p.spread_skill, 2),
               Table::num(report.persistence_rmse[k], 4)});
  }
  t.print(std::cout);
  std::printf(
      "\nreading: the first cycles cut the error sharply and the system "
      "stays far below persistence thereafter (the residual is largely "
      "unobservable model noise); spread/skill near 1 means the "
      "predicted uncertainty is about the right size.\n");
  return 0;
}
