#include "acoustics/coupled_assimilation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace essex::acoustics {

CoupledAnalysis assimilate_coupled(
    const SliceGeometry& geometry, const std::vector<double>& mean_t,
    const std::vector<double>& mean_tl, const CoupledCovariance& covariance,
    const std::vector<SectionObservation>& obs) {
  const std::size_t np = geometry.n_range * geometry.n_depth;
  ESSEX_REQUIRE(mean_t.size() == np && mean_tl.size() == np,
                "mean fields do not match the slice mesh");
  ESSEX_REQUIRE(covariance.slice_points == np,
                "covariance was built on a different mesh");
  ESSEX_REQUIRE(!covariance.modes.empty(), "covariance has no modes");
  ESSEX_REQUIRE(!obs.empty(), "need at least one observation");

  // Non-dimensionalised joint mean [T/t_scale ; TL/tl_scale].
  la::Vector joint(2 * np);
  for (std::size_t i = 0; i < np; ++i) {
    joint[i] = mean_t[i] / covariance.t_scale;
    joint[np + i] = mean_tl[i] / covariance.tl_scale;
  }

  // Observations → nearest-node linear stencils in non-dimensional units.
  std::vector<esse::LinearObservation> lin;
  lin.reserve(obs.size());
  for (const auto& ob : obs) {
    ESSEX_REQUIRE(ob.noise_std > 0, "observation noise must be positive");
    const double fr = std::clamp(
        ob.range_km / (geometry.length_km() /
                       static_cast<double>(geometry.n_range - 1)),
        0.0, static_cast<double>(geometry.n_range - 1));
    const double fz = std::clamp(
        ob.depth_m / geometry.depth_step_m(), 0.0,
        static_cast<double>(geometry.n_depth - 1));
    const auto ir = static_cast<std::size_t>(std::lround(fr));
    const auto iz = static_cast<std::size_t>(std::lround(fz));
    const std::size_t node = ir * geometry.n_depth + iz;

    esse::LinearObservation l;
    if (ob.kind == SectionObservation::Kind::kTemperature) {
      l.stencil = {{node, 1.0}};
      l.value = ob.value / covariance.t_scale;
      const double sd = ob.noise_std / covariance.t_scale;
      l.variance = sd * sd;
    } else {
      l.stencil = {{np + node, 1.0}};
      l.value = ob.value / covariance.tl_scale;
      const double sd = ob.noise_std / covariance.tl_scale;
      l.variance = sd * sd;
    }
    lin.push_back(std::move(l));
  }

  const esse::AnalysisResult res =
      esse::analyze(joint, covariance.modes, esse::ObsSet::from_linear(lin));

  CoupledAnalysis out;
  out.temperature.resize(np);
  out.tl.resize(np);
  for (std::size_t i = 0; i < np; ++i) {
    out.temperature[i] = res.posterior_state[i] * covariance.t_scale;
    out.tl[i] = res.posterior_state[np + i] * covariance.tl_scale;
  }
  out.prior_innovation_rms = res.prior_innovation_rms;
  out.posterior_innovation_rms = res.posterior_innovation_rms;
  out.prior_trace = res.prior_trace;
  out.posterior_trace = res.posterior_trace;
  return out;
}

}  // namespace essex::acoustics
