#include "acoustics/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"

namespace essex::acoustics {

double CoupledCovariance::coupling_strength() const {
  // RMS over the off-diagonal (T × TL) block of E Λ Eᵀ, evaluated from
  // the factorisation without forming the full matrix.
  if (modes.empty() || slice_points == 0) return 0.0;
  const la::Matrix& e = modes.modes();
  const la::Vector& s = modes.sigmas();
  double sum = 0.0;
  for (std::size_t i = 0; i < slice_points; ++i) {
    for (std::size_t j = 0; j < slice_points; ++j) {
      double pij = 0.0;
      for (std::size_t k = 0; k < modes.rank(); ++k)
        pij += e(i, k) * s[k] * s[k] * e(slice_points + j, k);
      sum += pij * pij;
    }
  }
  return std::sqrt(sum / static_cast<double>(slice_points * slice_points));
}

namespace {

/// One realisation on the section: its sound-speed slice and TL field.
struct Section {
  SoundSpeedSlice slice;
  std::vector<double> tl;
};

/// Extract every realisation's slice (serially, through one unpacked
/// state), then trace the TL fields on min(hardware threads, n) pool
/// workers, each field into its own slot. Every field is computed
/// serially by one worker, so the result is bitwise the serial loop's
/// for any worker count. A realisation that is not finite is rejected
/// by index; a worker's exception reaches the caller.
std::vector<Section> trace_sections(const ocean::Grid3D& grid,
                                    const std::vector<la::Vector>& realizations,
                                    const SliceGeometry& geom,
                                    const TLParams& params) {
  const std::size_t n = realizations.size();
  std::vector<Section> sections(n);
  {
    ocean::OceanState state(grid);
    for (std::size_t i = 0; i < n; ++i) {
      const la::Vector& x = realizations[i];
      ESSEX_REQUIRE(std::all_of(x.begin(), x.end(),
                                [](double v) { return std::isfinite(v); }),
                    "realization " + std::to_string(i) + " is not finite");
      state.unpack(x, grid);
      sections[i].slice = extract_slice(grid, state, geom);
    }
  }
  const std::size_t workers = std::min<std::size_t>(
      std::max(std::thread::hardware_concurrency(), 1u), n);
  ThreadPool pool(workers);
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (Section& s : sections)
    futs.push_back(pool.submit([&s, &params] {
      s.tl = compute_tl(s.slice, params).tl;
    }));
  for (auto& f : futs) f.get();
  return sections;
}

}  // namespace

TLEnsembleStats tl_ensemble_stats(const ocean::Grid3D& grid,
                                  const std::vector<la::Vector>& realizations,
                                  const SliceGeometry& geom,
                                  const TLParams& params) {
  ESSEX_REQUIRE(realizations.size() >= 2,
                "TL ensemble needs at least two realisations");
  const std::size_t np = geom.n_range * geom.n_depth;
  TLEnsembleStats out;
  out.geometry = geom;
  out.mean_tl.assign(np, 0.0);
  out.std_tl.assign(np, 0.0);
  out.n_members = realizations.size();

  const std::vector<Section> sections =
      trace_sections(grid, realizations, geom, params);
  for (const Section& s : sections)
    for (std::size_t i = 0; i < np; ++i) out.mean_tl[i] += s.tl[i];
  const double inv_n = 1.0 / static_cast<double>(sections.size());
  for (auto& v : out.mean_tl) v *= inv_n;
  for (const Section& s : sections) {
    for (std::size_t i = 0; i < np; ++i) {
      const double d = s.tl[i] - out.mean_tl[i];
      out.std_tl[i] += d * d;
    }
  }
  const double inv_n1 = 1.0 / static_cast<double>(sections.size() - 1);
  for (auto& v : out.std_tl) v = std::sqrt(v * inv_n1);
  return out;
}

CoupledCovariance coupled_covariance(const ocean::Grid3D& grid,
                                     const std::vector<la::Vector>& realizations,
                                     const SliceGeometry& geom,
                                     const TLParams& params,
                                     std::size_t max_rank) {
  ESSEX_REQUIRE(realizations.size() >= 2,
                "coupled covariance needs at least two realisations");
  const std::size_t np = geom.n_range * geom.n_depth;

  // Joint (T, TL) sample per realisation.
  std::vector<la::Vector> joints;
  joints.reserve(realizations.size());
  for (const Section& s : trace_sections(grid, realizations, geom, params)) {
    la::Vector joint(2 * np);
    for (std::size_t i = 0; i < np; ++i) {
      joint[i] = s.slice.t[i];
      joint[np + i] = s.tl[i];
    }
    joints.push_back(std::move(joint));
  }

  la::Matrix a = la::Matrix::from_columns(joints);
  const la::Vector mean = la::column_mean(a);
  a = la::anomalies_about(a, mean);

  // Non-dimensionalise each block by its pooled anomaly std (paper §2.2:
  // "the coupled physical-acoustical covariance P ... is computed and
  // non-dimensionalized").
  auto block_rms = [&](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = 0; j < a.cols(); ++j) {
        s += a(i, j) * a(i, j);
        ++n;
      }
    return std::sqrt(s / static_cast<double>(std::max<std::size_t>(n, 1)));
  };
  CoupledCovariance out;
  out.slice_points = np;
  out.t_scale = std::max(block_rms(0, np), 1e-12);
  out.tl_scale = std::max(block_rms(np, 2 * np), 1e-12);
  for (std::size_t i = 0; i < np; ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) /= out.t_scale;
      a(np + i, j) /= out.tl_scale;
    }
  a *= 1.0 / std::sqrt(static_cast<double>(a.cols() - 1));

  const la::ThinSvd svd = la::svd_thin(a, la::SvdMethod::kGram);
  out.modes = esse::ErrorSubspace::from_svd(svd.u, svd.s, 0.999, max_rank);
  return out;
}

std::vector<AcousticTask> acoustic_climate_tasks(
    const ocean::Grid3D& grid, std::size_t n_slices,
    const std::vector<double>& source_depths_m,
    const std::vector<double>& frequencies_khz) {
  ESSEX_REQUIRE(n_slices >= 1, "need at least one slice");
  ESSEX_REQUIRE(!source_depths_m.empty() && !frequencies_khz.empty(),
                "need at least one source depth and one frequency");
  const double lx = grid.dx_km() * static_cast<double>(grid.nx() - 1);
  const double ly = grid.dy_km() * static_cast<double>(grid.ny() - 1);

  std::vector<AcousticTask> tasks;
  tasks.reserve(n_slices * source_depths_m.size() * frequencies_khz.size());
  for (std::size_t s = 0; s < n_slices; ++s) {
    // Fan of cross-shore sections stacked south to north.
    const double frac = (n_slices == 1)
                            ? 0.5
                            : 0.15 + 0.7 * static_cast<double>(s) /
                                         static_cast<double>(n_slices - 1);
    SliceGeometry geom;
    geom.x0_km = 0.05 * lx;
    geom.y0_km = frac * ly;
    geom.x1_km = 0.75 * lx;
    geom.y1_km = frac * ly;
    geom.n_range = 64;
    geom.n_depth = 32;
    geom.max_depth_m = 200.0;
    for (double depth : source_depths_m) {
      for (double freq : frequencies_khz) {
        tasks.push_back({geom, depth, freq});
      }
    }
  }
  return tasks;
}

}  // namespace essex::acoustics
