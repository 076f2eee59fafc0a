// forecast_cycle: four chained 12 h ESSE cycles on the 48×40×4
// double gyre (m = 32,640). Each cycle is workflow::run_parallel_forecast
// with a fixed 32-member ensemble on every core, then a global
// subspace-Kalman analyze() of an AOSN campaign + SST swath sampled from
// a hidden identical-twin truth; each posterior seeds the next cycle.
// The ocean propagator does almost all of the work, so a propagator
// speed-up shows here and nowhere else.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "esse/repro.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "workflow/parallel_runner.hpp"

namespace perfbench {
namespace {

using namespace essex;

constexpr std::size_t kCycles = 4;
constexpr double kCycleHours = 12.0;
constexpr std::size_t kMaxRank = 16;

struct Inputs {
  explicit Inputs(ocean::Scenario s) : sc(std::move(s)) {}

  ocean::Scenario sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace prior;
  std::size_t members = 0;
  std::vector<la::Vector> truth;  ///< hidden truth at the end of cycle k
  std::vector<esse::ObsSet> obs;  ///< batch sampled from truth[k]
};

std::unique_ptr<Inputs> setup(const Options& opt) {
  auto in = std::make_unique<Inputs>(
      opt.smoke ? ocean::make_double_gyre_scenario(12, 10, 3)
                : ocean::make_double_gyre_scenario(48, 40, 4));
  const ocean::Grid3D& grid = in->sc.grid;
  in->model = std::make_unique<ocean::OceanModel>(
      grid, in->sc.params, ocean::WindForcing(in->sc.wind), in->sc.initial);
  in->members = opt.smoke ? 8 : 32;
  in->prior = esse::bootstrap_subspace(*in->model, in->sc.initial, 0.0,
                                       kCycleHours, 8, 0.99, kMaxRank,
                                       opt.seed, opt.threads);

  // Identical twin: the truth starts one prior draw away from the
  // initial state and runs with model noise, hidden from the cycle.
  Rng rng(opt.seed, 0x7457);
  la::Vector x = in->sc.initial.pack();
  const la::Vector err = in->prior.sample(rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += err[i];
  ocean::OceanState truth(grid);
  truth.unpack(x, grid);
  for (std::size_t k = 0; k < kCycles; ++k) {
    in->model->run(truth, kCycleHours * static_cast<double>(k), kCycleHours,
                   &rng);
    in->truth.push_back(truth.pack());
    obs::ObservationSet batch = obs::aosn_campaign(grid, truth, rng);
    const obs::ObservationSet sst = obs::sst_swath(grid, truth, 2, 0.2, 0.2,
                                                   rng);
    batch.insert(batch.end(), sst.begin(), sst.end());
    in->obs.push_back(
        esse::ObsSet::from_operator(obs::ObsOperator(grid, batch)));
  }
  return in;
}

struct CycleOut {
  std::string digest;
  esse::AnalysisResult analysis;
  double forecast_s = 0.0;
  double cycle_s = 0.0;
  std::size_t members = 0;
  double rmse_ratio = 0.0;  ///< posterior / prior RMSE against the truth
};

CycleOut run_cycle(const Inputs& in, const la::Vector& x0,
                   const esse::ErrorSubspace& subspace, std::size_t k,
                   std::size_t threads, std::uint64_t seed,
                   telemetry::Sink* sink) {
  const ocean::Grid3D& grid = in.sc.grid;
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = kCycleHours;
  cfg.cycle.threads = threads;
  // A fixed ensemble: Nmax == N, and ρ never reaches exactly 1, so
  // neither growth nor convergence changes the work per cycle.
  cfg.cycle.ensemble = {in.members, 2.0, in.members};
  cfg.cycle.convergence = {1.0, 8};
  cfg.cycle.max_rank = kMaxRank;
  cfg.cycle.perturbation.seed = seed * 1000 + k;

  const double t0 = now_s();
  ocean::OceanState initial(grid);
  initial.unpack(x0, grid);
  esse::ForecastResult fc;
  {
    telemetry::ScopedTimer span(sink, "workflow.run_parallel_forecast");
    fc = workflow::run_parallel_forecast(workflow::ForecastRequest{
        *in.model, initial, subspace, kCycleHours * static_cast<double>(k),
        cfg, sink});
  }
  const double t1 = now_s();
  CycleOut out;
  esse::AnalysisOptions options;
  options.threads = threads;
  options.sink = sink;
  {
    telemetry::ScopedTimer span(sink, "esse.analyze");
    out.analysis = esse::analyze(fc.central_forecast, fc.forecast_subspace,
                                 in.obs[k], options);
  }
  out.cycle_s = now_s() - t0;
  out.forecast_s = t1 - t0;
  out.members = fc.members_run;
  out.digest = esse::forecast_digest(fc);
  out.rmse_ratio = rmse(out.analysis.posterior_state, in.truth[k]) /
                   rmse(fc.central_forecast, in.truth[k]);
  return out;
}

struct Measured {
  std::vector<double> cycle_s;
  std::vector<double> first_cycle_s;  ///< cycle 0 of every chain
  double forecast_s = 0.0;
  std::size_t members = 0;
  double rmse_ratio = 0.0;  ///< first chain, mean over its cycles
};

/// Run cycles — chains of kCycles from the same start — until `seconds`
/// have passed and at least `min_cycles` ran, checking every cycle.
/// `digests` holds the forecast digest of each chain position: positions
/// already known are checked against it, the others are filled in.
Measured measure(const Inputs& in, const Options& opt, double seconds,
                 std::size_t min_cycles, telemetry::Sink* sink,
                 std::vector<std::string>& digests, Report& rep) {
  Measured m;
  la::Vector x;
  esse::ErrorSubspace subspace;
  const double t_start = now_s();
  double last_s = 0.0;
  for (std::size_t n = 0;
       n < min_cycles || now_s() - t_start + last_s <= seconds; ++n) {
    const std::size_t k = n % kCycles;
    if (k == 0) {
      x = in.sc.initial.pack();
      subspace = in.prior;
    }
    ++rep.attempted;
    CycleOut c;
    try {
      c = run_cycle(in, x, subspace, k, opt.threads, opt.seed, sink);
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.check(false, std::string("forecast_cycle: cycle threw: ") +
                           e.what());
      break;
    }
    la::Vector checked = c.analysis.posterior_state;
    if (opt.corrupt && n == 0)
      checked[0] = std::numeric_limits<double>::quiet_NaN();
    rep.check(all_finite(checked) &&
                  all_finite(c.analysis.posterior_subspace.sigmas()),
              "forecast_cycle: posterior is not finite");
    rep.check(c.analysis.posterior_trace <=
                  c.analysis.prior_trace * (1.0 + 1e-9),
              "forecast_cycle: posterior trace exceeds the prior trace");
    if (k < digests.size()) {
      rep.check(c.digest == digests[k],
                "forecast_cycle: forecast digest differs across repeats");
    } else {
      digests.push_back(c.digest);
    }
    if (n < kCycles)
      m.rmse_ratio += c.rmse_ratio / static_cast<double>(kCycles);
    m.cycle_s.push_back(c.cycle_s);
    if (k == 0) m.first_cycle_s.push_back(c.cycle_s);
    m.forecast_s += c.forecast_s;
    m.members += c.members;
    x = std::move(c.analysis.posterior_state);
    subspace = std::move(c.analysis.posterior_subspace);
    last_s = c.cycle_s;
  }
  return m;
}

}  // namespace

Report run_forecast_cycle(const Options& opt) {
  Report rep;
  std::vector<double> setup_times;
  const auto in = set_up([&] { return setup(opt); }, setup_times);
  std::vector<std::string> digests;

  if (!opt.trace) {
    // Two chains at least, so every cycle is repeated once.
    const Measured plain = measure(*in, opt, opt.seconds, 2 * kCycles,
                                   nullptr, digests, rep);
    rep.set("product_s", median(plain.cycle_s));
    rep.set("product_tail_s", upper_quartile(plain.cycle_s));
    rep.set("throughput_per_s",
            static_cast<double>(plain.members) / plain.forecast_s);
    set_common_metrics(rep, setup_times);
    return rep;
  }

  // Untraced and traced halves; the traced chain repeats the untraced one.
  const Measured plain =
      measure(*in, opt, opt.seconds / 2, kCycles, nullptr, digests, rep);
  telemetry::Sink sink("forecast_cycle");
  const Measured traced =
      measure(*in, opt, opt.seconds / 2, kCycles, &sink, digests, rep);
  // The 1-thread leg: cycle 0 alone, for parallel efficiency, member
  // contention and the thread-count invariance of the forecast digest.
  telemetry::Sink sink1("forecast_cycle.1thread");
  const CycleOut one = run_cycle(*in, in->sc.initial.pack(), in->prior, 0, 1,
                                 opt.seed, &sink1);
  rep.check(!digests.empty() && one.digest == digests.front(),
            "forecast_cycle: digest at 1 thread differs from the digest at " +
                std::to_string(opt.threads) + " threads");

  const ocean::Grid3D& grid = in->sc.grid;
  const double m = static_cast<double>(
      ocean::OceanState::packed_size(grid));
  const double steps =
      std::ceil(kCycleHours / in->model->max_stable_dt_hours() - 1e-9);
  const double requests = hist_count(sink, "workflow.run_parallel_forecast");
  const double member_s = hist_mean(sink, "runner.member_s");
  const double central_s = hist_mean(sink, "runner.central_s");
  const double final_svd_s = hist_mean(sink, "differ.subspace_s");
  const double reused = counter(sink, "differ.gram_cols_reused");
  const double computed = counter(sink, "differ.gram_cols_computed");
  // U = A·V streams the m×n anomaly block once per subspace call: at
  // every milestone n = stride, 2·stride, …, N and once more over all N.
  const std::size_t stride =
      workflow::ParallelRunnerConfig{}.svd_min_new_members;
  double svd_cols = static_cast<double>(in->members);
  for (std::size_t n = stride; n <= in->members; n += stride)
    svd_cols += static_cast<double>(n);

  rep.set("ocean.member_s", member_s);
  rep.set("ocean.cell_steps_per_s",
          static_cast<double>(grid.points()) * steps / member_s);
  rep.set("ocean.central_s", central_s);
  rep.set("ocean.member_inflation",
          member_s / hist_mean(sink1, "runner.member_s"));
  rep.set("esse.gram_reuse", reused / (reused + computed));
  rep.set("esse.svd_s", hist_mean(sink, "runner.svd_s"));
  rep.set("esse.svd_runs", counter(sink, "runner.svd_runs") / requests);
  rep.set("esse.analysis_s", hist_mean(sink, "esse.analyze"));
  rep.set("esse.analysis_rmse_ratio", plain.rmse_ratio);
  rep.set("linalg.svd_gbps",
          8.0 * m * svd_cols * requests /
              hist_sum(sink, "differ.subspace_s") / 1e9);
  rep.set("mtc.useful_ratio",
          counter(sink, "runner.members_run") /
              counter(sink, "runner.members_submitted"));
  rep.set("mtc.retries", counter(sink, "runner.members_retried"));
  rep.set("workflow.orchestration_s",
          hist_mean(sink, "workflow.run_parallel_forecast") -
              (central_s +
               hist_sum(sink, "runner.member_s") / requests /
                   static_cast<double>(opt.threads) +
               final_svd_s));
  rep.set("workflow.parallel_eff",
          one.cycle_s / (static_cast<double>(opt.threads) *
                         median(plain.first_cycle_s)));
  rep.set("common.trace_overhead",
          median(traced.cycle_s) / median(plain.cycle_s) - 1.0);
  write_trace(opt, {&sink, &sink1});
  return rep;
}

}  // namespace perfbench
