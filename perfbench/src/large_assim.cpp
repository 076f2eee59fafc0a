// large_assim: the latency a forecaster waits after the last member of a
// large-state ensemble lands. Monterey-like 160×120×3 (m = 249,600); 48
// member forecasts are built in set-up, so the ocean layer does no timed
// work. The timed pass absorbs them into a tile-sharded esse::Differ from
// every core, runs subspace_from_view + ConvergenceTest::update at each
// 8-member milestone, builds the observation operator, and finishes with
// one tiled, localized analyze() (8×8 tiles, halo 2, 30 km radius) of an
// AOSN campaign + SST swath at stride 2.
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/convergence.hpp"
#include "esse/cycle.hpp"
#include "esse/differ.hpp"
#include "esse/repro.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"
#include "ocean/tiling.hpp"

namespace perfbench {
namespace {

using namespace essex;

constexpr std::size_t kMilestone = 8;
constexpr double kRadiusKm = 30.0;
const ocean::TilingParams kTiles{8, 8, 2};

struct Inputs {
  explicit Inputs(ocean::Scenario s) : sc(std::move(s)) {}

  ocean::Scenario sc;
  la::Vector central;
  std::vector<la::Vector> members;
  la::Vector truth;
  obs::ObservationSet observations;
  std::shared_ptr<const ocean::Tiling> tiling;
};

std::unique_ptr<Inputs> setup(const Options& opt) {
  auto in = std::make_unique<Inputs>(
      opt.smoke ? ocean::make_monterey_scenario(24, 16, 3)
                : ocean::make_monterey_scenario(160, 120, 3));
  const ocean::Grid3D& grid = in->sc.grid;
  const ocean::OceanModel model(grid, in->sc.params,
                                ocean::WindForcing(in->sc.wind),
                                in->sc.initial);
  const esse::ErrorSubspace modes = esse::bootstrap_subspace(
      model, in->sc.initial, 0.0, 2.0, 8, 0.99, 8, opt.seed, opt.threads);

  // Members: central + a draw from the bootstrapped subspace + small
  // independent noise, so the ensemble spans its full rank.
  Rng rng(opt.seed, 0xA551);
  in->central = in->sc.initial.pack();
  const std::size_t n_members = opt.smoke ? 16 : 48;
  for (std::size_t i = 0; i < n_members; ++i) {
    la::Vector x = modes.sample(rng);
    for (std::size_t j = 0; j < x.size(); ++j)
      x[j] += in->central[j] + rng.normal(0.0, 1e-3);
    in->members.push_back(std::move(x));
  }
  in->truth = modes.sample(rng);
  for (std::size_t j = 0; j < in->truth.size(); ++j)
    in->truth[j] += in->central[j];
  ocean::OceanState truth(grid);
  truth.unpack(in->truth, grid);
  in->observations = obs::aosn_campaign(grid, truth, rng);
  const obs::ObservationSet sst = obs::sst_swath(grid, truth, 2, 0.3, 0.2,
                                                 rng);
  in->observations.insert(in->observations.end(), sst.begin(), sst.end());
  in->tiling = std::make_shared<const ocean::Tiling>(grid, kTiles);
  return in;
}

struct PassOut {
  double assim_s = 0.0;
  esse::AnalysisResult analysis;
  double rmse_ratio = 0.0;
};

/// One assimilation pass: absorb every member from `threads` absorber
/// threads while this thread runs the milestone SVDs, then analyze.
PassOut run_pass(const Inputs& in, const Options& opt,
                 telemetry::Sink* sink) {
  const std::size_t n = in.members.size();
  const double t0 = now_s();
  esse::Differ differ(in.central, in.tiling);
  differ.set_sink(sink);
  esse::ConvergenceTest conv({0.97, kMilestone});

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;  // guarded by mu
  esse::ErrorSubspace subspace;
  {
    std::vector<std::jthread> absorbers;
    for (std::size_t t = 0; t < opt.threads; ++t) {
      absorbers.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            telemetry::ScopedTimer span(sink, "esse.add_member");
            differ.add_member(i, in.members[i]);
          } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            if (!error) error = std::current_exception();
          }
          // Taking mu orders this landing before the milestone
          // waiter's next predicate check, so no wake-up is lost.
          { std::lock_guard<std::mutex> lk(mu); }
          cv.notify_all();
        }
      });
    }
    for (std::size_t c = kMilestone; c <= n; c += kMilestone) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return error || differ.contiguous_count() >= c; });
        if (error) break;
      }
      telemetry::ScopedTimer span(sink, "esse.subspace_from_view");
      subspace = esse::subspace_from_view(differ.contiguous_view().prefix(c),
                                          0.99, 0, nullptr, sink);
      conv.update(subspace, c);
    }
  }  // absorbers join here
  if (error) std::rethrow_exception(error);

  PassOut out;
  esse::ObsSet obs_set;
  {
    telemetry::ScopedTimer span(sink, "obs.build");
    obs_set = esse::ObsSet::from_operator(
        obs::ObsOperator(in.sc.grid, in.observations));
  }
  esse::AnalysisOptions options;
  options.localization = {true, kRadiusKm};
  options.tiling = kTiles;
  options.threads = opt.threads;
  options.grid = &in.sc.grid;
  options.sink = sink;
  {
    telemetry::ScopedTimer span(sink, "esse.analyze");
    out.analysis = esse::analyze(differ.central(), subspace, obs_set, options);
  }
  out.assim_s = now_s() - t0;
  out.rmse_ratio = rmse(out.analysis.posterior_state, in.truth) /
                   rmse(in.central, in.truth);
  return out;
}

struct Measured {
  std::vector<double> assim_s;
  double rmse_ratio = 0.0;
  std::size_t passes = 0;
};

Measured measure(const Inputs& in, const Options& opt, double seconds,
                 telemetry::Sink* sink, Report& rep) {
  Measured m;
  std::string first_digest;
  const double t_start = now_s();
  double pass_s = 0.0;
  while (m.passes == 0 || now_s() - t_start + pass_s <= seconds) {
    const double t_pass = now_s();
    ++rep.attempted;
    ++m.passes;
    PassOut p;
    try {
      p = run_pass(in, opt, sink);
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.check(false, std::string("large_assim: pass threw: ") + e.what());
      break;
    }
    la::Vector checked = p.analysis.posterior_state;
    if (opt.corrupt && m.passes == 1)
      checked[checked.size() / 2] = std::numeric_limits<double>::infinity();
    rep.check(all_finite(checked) &&
                  all_finite(p.analysis.posterior_subspace.sigmas()),
              "large_assim: posterior is not finite");
    rep.check(p.analysis.posterior_trace <=
                      p.analysis.prior_trace * (1.0 + 1e-9) &&
                  p.analysis.posterior_innovation_rms <=
                      p.analysis.prior_innovation_rms,
              "large_assim: the analysis hurt (trace or innovation grew)");
    // Arrival order varies from pass to pass; the §10 contract says the
    // posterior must not.
    const std::string digest = esse::analysis_digest(p.analysis);
    if (first_digest.empty()) first_digest = digest;
    rep.check(digest == first_digest,
              "large_assim: posterior differs between passes");
    m.assim_s.push_back(p.assim_s);
    m.rmse_ratio = p.rmse_ratio;
    pass_s = now_s() - t_pass;
  }
  return m;
}

}  // namespace

Report run_large_assim(const Options& opt) {
  Report rep;
  std::vector<double> setup_times;
  const auto in = set_up([&] { return setup(opt); }, setup_times);
  const double n = static_cast<double>(in->members.size());

  if (!opt.trace) {
    const Measured plain = measure(*in, opt, opt.seconds, nullptr, rep);
    rep.set("product_s", median(plain.assim_s));
    rep.set("product_tail_s", upper_quartile(plain.assim_s));
    rep.set("throughput_per_s", n / median(plain.assim_s));
    set_common_metrics(rep, setup_times);
    return rep;
  }

  // Untraced and traced halves.
  const Measured plain = measure(*in, opt, opt.seconds / 2, nullptr, rep);
  telemetry::Sink sink("large_assim");
  const Measured traced = measure(*in, opt, opt.seconds / 2, &sink, rep);
  const double m = static_cast<double>(in->central.size());
  const double passes = static_cast<double>(traced.passes);
  const double reused = counter(sink, "differ.gram_cols_reused");
  const double computed = counter(sink, "differ.gram_cols_computed");
  double svd_cols = 0.0;  // U = A·V streams m×c at every milestone c
  for (std::size_t c = kMilestone; c <= in->members.size(); c += kMilestone)
    svd_cols += static_cast<double>(c);

  rep.set("esse.absorb_s", hist_mean(sink, "esse.add_member"));
  rep.set("esse.gram_reuse", reused / (reused + computed));
  rep.set("esse.svd_s", hist_mean(sink, "esse.subspace_from_view"));
  rep.set("esse.svd_runs",
          hist_count(sink, "esse.subspace_from_view") / passes);
  rep.set("esse.analysis_s", hist_mean(sink, "esse.analyze"));
  rep.set("esse.analysis_rmse_ratio", plain.rmse_ratio);
  rep.set("linalg.absorb_gbps",
          8.0 * m * computed / hist_sum(sink, "esse.add_member") / 1e9);
  rep.set("linalg.svd_gbps",
          8.0 * m * svd_cols * passes / hist_sum(sink, "differ.subspace_s") /
              1e9);
  rep.set("obs.build_s", hist_mean(sink, "obs.build"));
  rep.set("common.trace_overhead",
          median(traced.assim_s) / median(plain.assim_s) - 1.0);
  write_trace(opt, {&sink});
  return rep;
}

}  // namespace perfbench
