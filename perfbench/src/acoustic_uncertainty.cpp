// acoustic_uncertainty: the §2.2 product. Twelve ocean realizations of
// the Monterey-like 48×40×6 domain (the posterior state plus draws from
// the posterior subspace, built in set-up) on a cross-shelf 64×32
// section; the timed part is acoustics::tl_ensemble_stats +
// coupled_covariance(…, 5) for a 30 m / 1 kHz source with 121 rays. Only
// the acoustics layer works here.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "acoustics/ensemble.hpp"
#include "acoustics/slice.hpp"
#include "acoustics/tl_solver.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/analysis.hpp"
#include "esse/cycle.hpp"
#include "obs/instruments.hpp"
#include "ocean/monterey.hpp"

namespace perfbench {
namespace {

using namespace essex;

constexpr std::size_t kCoupledRank = 5;

struct Inputs {
  explicit Inputs(ocean::Scenario s) : sc(std::move(s)) {}

  ocean::Scenario sc;
  std::vector<la::Vector> realizations;
  acoustics::SliceGeometry geom;
  acoustics::TLParams params;
};

std::unique_ptr<Inputs> setup(const Options& opt) {
  auto in = std::make_unique<Inputs>(
      opt.smoke ? ocean::make_monterey_scenario(16, 14, 4)
                : ocean::make_monterey_scenario(48, 40, 6));
  const ocean::Grid3D& grid = in->sc.grid;
  const ocean::OceanModel model(grid, in->sc.params,
                                ocean::WindForcing(in->sc.wind),
                                in->sc.initial);
  const esse::ErrorSubspace prior = esse::bootstrap_subspace(
      model, in->sc.initial, 0.0, 6.0, 8, 0.99, 8, opt.seed, opt.threads);

  // Assimilate one campaign sampled from a twin truth, then draw the
  // realizations about the posterior.
  Rng rng(opt.seed, 0xAC05);
  const la::Vector x0 = in->sc.initial.pack();
  la::Vector x = prior.sample(rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += x0[i];
  ocean::OceanState truth(grid);
  truth.unpack(x, grid);
  const obs::ObsOperator h(grid, obs::aosn_campaign(grid, truth, rng));
  esse::AnalysisOptions options;
  options.threads = opt.threads;
  const esse::AnalysisResult post = esse::analyze(x0, prior, h, options);

  const std::size_t n = opt.smoke ? 4 : 12;
  in->realizations.push_back(post.posterior_state);
  while (in->realizations.size() < n) {
    la::Vector r = post.posterior_subspace.sample(rng);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] += post.posterior_state[i];
    in->realizations.push_back(std::move(r));
  }

  // The cross-shelf section of bench_acoustic_uncertainty.
  in->geom.x0_km = 4.0;
  in->geom.y0_km = 0.55 * grid.dy_km() * static_cast<double>(grid.ny() - 1);
  in->geom.x1_km = 0.72 * grid.dx_km() * static_cast<double>(grid.nx() - 1);
  in->geom.y1_km = in->geom.y0_km;
  in->geom.n_range = opt.smoke ? 16 : 64;
  in->geom.n_depth = opt.smoke ? 8 : 32;
  in->geom.max_depth_m = 200.0;
  in->params.source_depth_m = 30.0;
  in->params.frequency_khz = 1.0;
  in->params.n_rays = opt.smoke ? 21 : 121;
  return in;
}

bool tl_in_range(const std::vector<double>& v, double max_tl) {
  for (double x : v)
    if (!std::isfinite(x) || x < 0.0 || x > max_tl) return false;
  return true;
}

struct Measured {
  std::vector<double> acoustic_s;
  std::size_t passes = 0;
};

Measured measure(const Inputs& in, const Options& opt, double seconds,
                 telemetry::Sink* sink, Report& rep) {
  const ocean::Grid3D& grid = in.sc.grid;
  const double max_tl = in.params.max_tl_db;
  Measured m;
  std::vector<double> first_mean;
  const double t_start = now_s();
  double pass_s = 0.0;
  while (m.passes == 0 || now_s() - t_start + pass_s <= seconds) {
    ++rep.attempted;
    ++m.passes;
    const double t0 = now_s();
    acoustics::TLEnsembleStats stats;
    acoustics::CoupledCovariance cov;
    try {
      {
        telemetry::ScopedTimer span(sink, "acoustics.tl_ensemble_stats");
        stats = acoustics::tl_ensemble_stats(grid, in.realizations, in.geom,
                                             in.params);
      }
      {
        telemetry::ScopedTimer span(sink, "acoustics.coupled_covariance");
        cov = acoustics::coupled_covariance(grid, in.realizations, in.geom,
                                            in.params, kCoupledRank);
      }
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.check(false, std::string("acoustic_uncertainty: pass threw: ") +
                           e.what());
      break;
    }
    pass_s = now_s() - t0;
    m.acoustic_s.push_back(pass_s);

    std::vector<double> mean = stats.mean_tl;
    if (opt.corrupt && m.passes == 1) mean[mean.size() / 3] = max_tl + 1.0;
    rep.check(tl_in_range(mean, max_tl) && tl_in_range(stats.std_tl, max_tl),
              "acoustic_uncertainty: TL outside [0, max_tl_db] or not "
              "finite");
    rep.check(all_finite(cov.modes.modes().data()) &&
                  all_finite(cov.modes.sigmas()) &&
                  std::isfinite(cov.coupling_strength()),
              "acoustic_uncertainty: coupled covariance is not finite");
    if (first_mean.empty()) first_mean = stats.mean_tl;
    rep.check(stats.mean_tl == first_mean,
              "acoustic_uncertainty: TL statistics differ between passes");

    if (sink) {
      // One TL field timed directly, outside the product's wall time.
      ocean::OceanState state(grid);
      state.unpack(in.realizations.front(), grid);
      const acoustics::SoundSpeedSlice slice =
          acoustics::extract_slice(grid, state, in.geom);
      acoustics::TLField tl;
      {
        telemetry::ScopedTimer span(sink, "acoustics.compute_tl");
        tl = acoustics::compute_tl(slice, in.params);
      }
      rep.check(tl_in_range(tl.tl, max_tl),
                "acoustic_uncertainty: compute_tl outside [0, max_tl_db]");
    }
  }
  return m;
}

}  // namespace

Report run_acoustic_uncertainty(const Options& opt) {
  Report rep;
  std::vector<double> setup_times;
  const auto in = set_up([&] { return setup(opt); }, setup_times);
  // Both calls trace every realization.
  const double fields = 2.0 * static_cast<double>(in->realizations.size());

  if (!opt.trace) {
    const Measured plain = measure(*in, opt, opt.seconds, nullptr, rep);
    rep.set("product_s", median(plain.acoustic_s));
    rep.set("product_tail_s", upper_quartile(plain.acoustic_s));
    rep.set("throughput_per_s", fields / median(plain.acoustic_s));
    set_common_metrics(rep, setup_times);
    return rep;
  }

  // Untraced and traced halves.
  const Measured plain = measure(*in, opt, opt.seconds / 2, nullptr, rep);
  telemetry::Sink sink("acoustic_uncertainty");
  const Measured traced = measure(*in, opt, opt.seconds / 2, &sink, rep);
  rep.set("acoustics.tl_s", hist_mean(sink, "acoustics.compute_tl"));
  rep.set("acoustics.stats_s",
          hist_mean(sink, "acoustics.tl_ensemble_stats"));
  rep.set("acoustics.coupled_s",
          hist_mean(sink, "acoustics.coupled_covariance"));
  rep.set("common.trace_overhead",
          median(traced.acoustic_s) / median(plain.acoustic_s) - 1.0);
  write_trace(opt, {&sink});
  return rep;
}

}  // namespace perfbench
