#include "esse/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "esse/local_analysis.hpp"
#include "linalg/chol.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/stats.hpp"
#include "ocean/state.hpp"

namespace essex::esse {

const char* to_string(AnalysisMethod method) {
  switch (method) {
    case AnalysisMethod::kSubspaceKalman:
      return "subspace_kalman";
    case AnalysisMethod::kEtkf:
      return "etkf";
    case AnalysisMethod::kEsrf:
      return "esrf";
    case AnalysisMethod::kMultiModel:
      return "multi_model";
  }
  return "unknown";
}

const std::vector<AnalysisMethod>& analysis_method_registry() {
  static const std::vector<AnalysisMethod> kRegistry = {
      AnalysisMethod::kSubspaceKalman, AnalysisMethod::kEtkf,
      AnalysisMethod::kEsrf, AnalysisMethod::kMultiModel};
  return kRegistry;
}

bool is_registered(AnalysisMethod method) {
  const auto& reg = analysis_method_registry();
  return std::find(reg.begin(), reg.end(), method) != reg.end();
}

std::optional<AnalysisMethod> parse_analysis_method(std::string_view name) {
  for (const AnalysisMethod m : analysis_method_registry())
    if (name == to_string(m)) return m;
  return std::nullopt;
}

namespace detail {

la::Matrix posterior_core(const la::Vector& sigmas, const la::Matrix& g) {
  const std::size_t k = sigmas.size();
  la::Matrix inner = la::Matrix::identity(k);
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      inner(a, b) += sigmas[a] * g(a, b) * sigmas[b];
  la::Matrix bmat(k, k);
  for (std::size_t a = 0; a < k; ++a) bmat(a, a) = sigmas[a];
  la::Matrix inner_inv_b = la::cholesky_solve(inner, bmat);  // inner⁻¹ B
  return la::matmul(bmat, inner_inv_b);                      // B inner⁻¹ B
}

std::size_t kept_rank(const la::Vector& eigenvalues) {
  std::size_t keep = 0;
  while (keep < eigenvalues.size() &&
         eigenvalues[keep] > 1e-14 * std::max(eigenvalues[0], 1e-300)) {
    ++keep;
  }
  return std::max<std::size_t>(keep, 1);
}

void etkf_solve(const la::Vector& sigmas, const la::Matrix& g,
                const la::Vector& rhs, la::Vector& w, la::Matrix& smat) {
  const std::size_t k = sigmas.size();
  // A = Bᵀ G B in coefficient space; its eigenpairs (V, Γ) define the
  // transform T = V (I+Γ)⁻¹ Vᵀ with C = B T B the Kalman core.
  la::Matrix a(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      a(i, j) = sigmas[i] * g(i, j) * sigmas[j];
  la::EigSym eig = la::eig_sym(a);
  la::Vector inv_one(k), inv_half(k);
  for (std::size_t j = 0; j < k; ++j) {
    const double gamma = std::max(eig.eigenvalues[j], 0.0);
    inv_one[j] = 1.0 / (1.0 + gamma);
    inv_half[j] = 1.0 / std::sqrt(1.0 + gamma);
  }

  // w = B V (I+Γ)⁻¹ Vᵀ B rhs.
  la::Vector br(k), vt(k);
  for (std::size_t j = 0; j < k; ++j) br[j] = sigmas[j] * rhs[j];
  for (std::size_t j = 0; j < k; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < k; ++i)
      s += eig.eigenvectors(i, j) * br[i];
    vt[j] = s * inv_one[j];
  }
  w.assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j)
      s += eig.eigenvectors(i, j) * vt[j];
    w[i] = sigmas[i] * s;
  }

  // S = B·T^{1/2} with the symmetric square root T^{1/2} =
  // V (I+Γ)^{-1/2} Vᵀ — a spectral function of A, so eigenvector sign
  // conventions cancel and S is canonical without explicit sign fixing.
  smat = la::Matrix(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < k; ++t)
        s += eig.eigenvectors(i, t) * inv_half[t] * eig.eigenvectors(j, t);
      smat(i, j) = sigmas[i] * s;
    }
  }
}

void esrf_solve(const la::Vector& sigmas, const la::Matrix& he,
                const la::Vector& d, const la::Vector& rvar,
                const std::vector<std::pair<std::size_t, double>>& local,
                la::Vector& w, la::Matrix& smat) {
  const std::size_t k = sigmas.size();
  w.assign(k, 0.0);
  smat = la::Matrix(k, k);
  for (std::size_t j = 0; j < k; ++j) smat(j, j) = sigmas[j];
  la::Vector shat(k), ws(k);
  for (const auto& [i, taper] : local) {
    const double r = rvar[i] / taper;  // taper ∈ (0, 1]: inflated noise
    const double* row = he.data().data() + i * he.cols();
    // ŝ = Wᵀh: the observation's footprint on the factor's columns.
    for (std::size_t j = 0; j < k; ++j) {
      double s = 0.0;
      for (std::size_t a = 0; a < k; ++a) s += row[a] * smat(a, j);
      shat[j] = s;
    }
    double e = 0.0;
    for (std::size_t j = 0; j < k; ++j) e += shat[j] * shat[j];
    const double f = e + r;  // innovation variance of this scalar
    double di = d[i];
    for (std::size_t a = 0; a < k; ++a) di -= row[a] * w[a];
    // Mean: K = Wŝ/f. Factor: Potter's rank-one downdate
    // W ← W(I − β ŝŝᵀ) with β = 1/(f + √(rf)), the exact square root
    // of (I − ŝŝᵀ/f).
    for (std::size_t a = 0; a < k; ++a) {
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += smat(a, j) * shat[j];
      ws[a] = s;
    }
    const double gain = di / f;
    for (std::size_t a = 0; a < k; ++a) w[a] += ws[a] * gain;
    const double beta = 1.0 / (f + std::sqrt(r * f));
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t j = 0; j < k; ++j)
        smat(a, j) -= beta * ws[a] * shat[j];
  }
}

}  // namespace detail

double gaspari_cohn(double dist, double half_support) {
  if (half_support <= 0.0) return dist == 0.0 ? 1.0 : 0.0;
  const double r = dist / half_support;
  if (r >= 2.0) return 0.0;
  const double r2 = r * r, r3 = r2 * r, r4 = r3 * r, r5 = r4 * r;
  if (r < 1.0) {
    return -0.25 * r5 + 0.5 * r4 + 0.625 * r3 - 5.0 / 3.0 * r2 + 1.0;
  }
  return r5 / 12.0 - 0.5 * r4 + 0.625 * r3 + 5.0 / 3.0 * r2 - 5.0 * r +
         4.0 - 2.0 / (3.0 * r);
}

namespace {

/// G = HEᵀ R⁻¹ HE, accumulated exactly as the historical global update
/// did (upper triangle row-by-row, mirrored) — extracted so the ETKF
/// shares the identical arithmetic.
la::Matrix obs_gram(const la::Matrix& he, const la::Vector& rvar) {
  const std::size_t p = he.rows();
  const std::size_t k = he.cols();
  la::Matrix g(k, k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      double s = 0.0;
      for (std::size_t i = 0; i < p; ++i)
        s += he(i, a) * he(i, b) / rvar[i];
      g(a, b) = s;
      g(b, a) = s;
    }
  }
  return g;
}

/// HEᵀ R⁻¹ d — same extraction.
la::Vector obs_rhs(const la::Matrix& he, const la::Vector& d,
                   const la::Vector& rvar) {
  const std::size_t p = he.rows();
  const std::size_t k = he.cols();
  la::Vector rhs(k, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    double s = 0.0;
    for (std::size_t i = 0; i < p; ++i) s += he(i, a) * d[i] / rvar[i];
    rhs[a] = s;
  }
  return rhs;
}

/// The global subspace-Kalman update: given HE = H·E (p×k), the
/// innovation d = yᵒ − H·x_f and diagonal R, produce the posterior
/// mean/subspace.
AnalysisResult analyze_core(const la::Vector& forecast,
                            const ErrorSubspace& subspace,
                            const la::Matrix& he, const la::Vector& d,
                            const la::Vector& rvar) {
  for (double rv : rvar) {
    ESSEX_REQUIRE(rv > 0.0, "observation noise variance must be positive");
  }

  // Information-form core: C = (Λ⁻¹ + HEᵀ R⁻¹ HE)⁻¹, computed as
  // C = B (I + Bᵀ G B)⁻¹ B with B = Λ^{1/2}, G = HEᵀ R⁻¹ HE.
  la::Matrix g = obs_gram(he, rvar);
  la::Matrix c = detail::posterior_core(subspace.sigmas(), g);

  // w = C · HEᵀ R⁻¹ d (subspace coefficients of the increment).
  la::Vector rhs = obs_rhs(he, d, rvar);
  const la::Vector w = la::matvec(c, rhs);

  AnalysisResult out;
  out.posterior_state = forecast;
  const la::Vector incr = subspace.expand(w);
  for (std::size_t i = 0; i < out.posterior_state.size(); ++i)
    out.posterior_state[i] += incr[i];

  // Posterior subspace from the symmetric eigendecomposition of C.
  la::EigSym eig = la::eig_sym(c);
  const std::size_t keep = detail::kept_rank(eig.eigenvalues);
  la::Matrix post_modes =
      la::matmul(subspace.modes(), eig.eigenvectors.first_cols(keep));
  la::Vector post_sig(keep);
  for (std::size_t j = 0; j < keep; ++j)
    post_sig[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
  out.posterior_subspace =
      ErrorSubspace(std::move(post_modes), std::move(post_sig));

  out.prior_innovation_rms = la::rms(d);
  out.prior_trace = subspace.total_variance();
  out.posterior_trace = out.posterior_subspace.total_variance();
  return out;
}

/// Epilogue of the square-root methods: mean update from w plus the
/// posterior subspace from the k×k factor S (C = S·Sᵀ) by the method of
/// snapshots — P_a = (E S)(E S)ᵀ, so the posterior modes are
/// E·S·V̂·Λ̂^{-1/2} with (V̂, Λ̂) the eigenpairs of SᵀS.
AnalysisResult finish_sqrt(const la::Vector& forecast,
                           const ErrorSubspace& subspace,
                           const la::Vector& w, const la::Matrix& smat,
                           const la::Vector& d) {
  const std::size_t k = subspace.rank();
  AnalysisResult out;
  out.posterior_state = forecast;
  const la::Vector incr = subspace.expand(w);
  for (std::size_t i = 0; i < out.posterior_state.size(); ++i)
    out.posterior_state[i] += incr[i];

  la::Matrix gram(k, k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += smat(j, a) * smat(j, b);
      gram(a, b) = s;
      gram(b, a) = s;
    }
  }
  la::EigSym eig = la::eig_sym(gram);
  const std::size_t keep = detail::kept_rank(eig.eigenvalues);
  la::Vector post_sig(keep);
  la::Matrix coeff(k, keep);  // S·V̂·Λ̂^{-1/2}
  for (std::size_t j = 0; j < keep; ++j) {
    post_sig[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
    const double inv = post_sig[j] > 0.0 ? 1.0 / post_sig[j] : 0.0;
    for (std::size_t a = 0; a < k; ++a) {
      double s = 0.0;
      for (std::size_t b = 0; b < k; ++b)
        s += smat(a, b) * eig.eigenvectors(b, j);
      coeff(a, j) = s * inv;
    }
  }
  la::Matrix post_modes = la::matmul(subspace.modes(), coeff);
  out.posterior_subspace =
      ErrorSubspace(std::move(post_modes), std::move(post_sig));

  out.prior_innovation_rms = la::rms(d);
  out.prior_trace = subspace.total_variance();
  out.posterior_trace = out.posterior_subspace.total_variance();
  return out;
}

/// Fill HE = H·E. Serial when one worker (the pre-refactor loop, bit for
/// bit); otherwise contiguous row blocks fan out over a pool — every
/// entry is computed by the same per-entry stencil accumulation into a
/// disjoint slot, so the parallel build is bitwise identical to the
/// serial one.
void build_he(la::Matrix& he, const ObsSet& obs, const la::Matrix& modes,
              std::size_t workers) {
  const std::size_t p = he.rows();
  const std::size_t k = he.cols();
  if (workers <= 1) {
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < k; ++j)
        he(i, j) = obs.apply_mode(i, modes, j);
    return;
  }
  ThreadPool pool(workers);
  const std::size_t block = (p + workers - 1) / workers;
  std::vector<std::future<void>> futs;
  futs.reserve(workers);
  for (std::size_t lo = 0; lo < p; lo += block) {
    const std::size_t hi = std::min(lo + block, p);
    futs.push_back(pool.submit([&he, &obs, &modes, lo, hi, k] {
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t j = 0; j < k; ++j)
          he(i, j) = obs.apply_mode(i, modes, j);
    }));
  }
  for (auto& f : futs) f.get();
}

/// The historical dense path over the whole domain, generalized over the
/// self-contained methods. The HE/innovation arithmetic accumulates in
/// stencil order, exactly as the pre-ObsSet ObsOperator and linear
/// front ends did, so the default method stays bitwise unchanged through
/// the ObsSet adapters.
AnalysisResult analyze_global(const la::Vector& forecast,
                              const ErrorSubspace& subspace,
                              const ObsSet& obs,
                              const AnalysisOptions& options) {
  const std::size_t p = obs.size();
  const std::size_t k = subspace.rank();

  const std::size_t workers =
      std::min(std::max<std::size_t>(options.threads, 1), p);
  la::Matrix he(p, k);
  build_he(he, obs, subspace.modes(), workers);
  if (options.sink) {
    options.sink->gauge_set("analysis.threads",
                            static_cast<double>(workers));
  }
  la::Vector d = obs.innovations(forecast);
  la::Vector rvar(p);
  for (std::size_t i = 0; i < p; ++i) {
    rvar[i] = obs.entry(i).variance;
    ESSEX_REQUIRE(rvar[i] > 0.0,
                  "observation noise variance must be positive");
  }

  AnalysisResult out;
  switch (options.method) {
    case AnalysisMethod::kSubspaceKalman:
      out = analyze_core(forecast, subspace, he, d, rvar);
      break;
    case AnalysisMethod::kEtkf: {
      const la::Matrix g = obs_gram(he, rvar);
      const la::Vector rhs = obs_rhs(he, d, rvar);
      la::Vector w;
      la::Matrix smat;
      detail::etkf_solve(subspace.sigmas(), g, rhs, w, smat);
      out = finish_sqrt(forecast, subspace, w, smat, d);
      break;
    }
    case AnalysisMethod::kEsrf: {
      std::vector<std::pair<std::size_t, double>> all(p);
      for (std::size_t i = 0; i < p; ++i) all[i] = {i, 1.0};
      la::Vector w;
      la::Matrix smat;
      detail::esrf_solve(subspace.sigmas(), he, d, rvar, all, w, smat);
      out = finish_sqrt(forecast, subspace, w, smat, d);
      break;
    }
    default:
      ESSEX_REQUIRE(false,
                    "analysis method is not self-contained on the "
                    "global path");
  }
  out.posterior_innovation_rms =
      la::rms(obs.innovations(out.posterior_state));
  return out;
}

}  // namespace

ObsSet with_pseudo_observations(const ErrorSubspace& subspace,
                                const ObsSet& obs,
                                const AnalysisOptions& options) {
  const MultiModelObs& mm = options.multi_model;
  ESSEX_REQUIRE(mm.surrogate != nullptr,
                "multi-model analysis needs a surrogate forecast");
  ESSEX_REQUIRE(mm.surrogate->size() == subspace.dim(),
                "surrogate forecast dimension does not match the state");
  ESSEX_REQUIRE(mm.stride >= 1,
                "pseudo-observation stride must be >= 1");
  ESSEX_REQUIRE(mm.variance_inflation > 0.0,
                "pseudo-observation variance inflation must be positive");
  ESSEX_REQUIRE(mm.variance_floor >= 0.0,
                "pseudo-observation variance floor must be >= 0");

  const std::size_t m = subspace.dim();
  const la::Vector marg = subspace.marginal_stddev();
  // Pseudo-observations carry grid positions when the geometry is known
  // (so localization tapers them like real data); otherwise they stay
  // unpositioned and reach every tile, like any generic linear stencil.
  const ocean::Grid3D* grid = options.grid;
  if (grid != nullptr && ocean::OceanState::packed_size(*grid) != m)
    grid = nullptr;

  std::vector<ObsEntry> entries = obs.entries();
  entries.reserve(entries.size() + m / mm.stride + 1);
  for (std::size_t idx = 0; idx < m; idx += mm.stride) {
    ObsEntry e;
    e.stencil = {{idx, 1.0}};
    e.value = (*mm.surrogate)[idx];
    e.variance =
        mm.variance_inflation * marg[idx] * marg[idx] + mm.variance_floor;
    if (grid != nullptr) {
      // Packed layout [T, S, u, v, ssh], 3-D fields iz-major then iy, ix.
      const std::size_t points = grid->points();
      const std::size_t plane = grid->nx() * grid->ny();
      const std::size_t h =
          idx < 4 * points ? (idx % points) % plane : idx - 4 * points;
      e.positioned = true;
      e.x_km = static_cast<double>(h % grid->nx()) * grid->dx_km();
      e.y_km = static_cast<double>(h / grid->nx()) * grid->dy_km();
    }
    entries.push_back(std::move(e));
  }
  return ObsSet(std::move(entries));
}

AnalysisResult analyze(const la::Vector& forecast,
                       const ErrorSubspace& subspace, const ObsSet& obs,
                       const AnalysisOptions& options) {
  ESSEX_REQUIRE(is_registered(options.method),
                "analysis method is not registered");
  ESSEX_REQUIRE(!subspace.empty(), "analysis needs a non-empty subspace");
  ESSEX_REQUIRE(!obs.empty(), "analysis needs at least one observation");
  ESSEX_REQUIRE(forecast.size() == subspace.dim(),
                "forecast dimension does not match the subspace");

  if (options.method == AnalysisMethod::kMultiModel) {
    // The combiner is a front end over the subspace-Kalman core: append
    // the surrogate's pseudo-observations (canonical ascending index
    // order, after the real data) and recurse. The recursion inherits
    // localization/threads, so the combined set runs tiled when asked.
    const ObsSet combined = with_pseudo_observations(subspace, obs, options);
    if (options.sink) {
      options.sink->count("analysis.method.multi_model");
      options.sink->count("analysis.observations",
                          static_cast<double>(obs.size()));
      options.sink->count("analysis.pseudo_observations",
                          static_cast<double>(combined.size() - obs.size()));
    }
    AnalysisOptions base = options;
    base.method = AnalysisMethod::kSubspaceKalman;
    base.multi_model = MultiModelObs{};
    base.sink = nullptr;  // counted above; don't double-count the core
    return analyze(forecast, subspace, combined, base);
  }

  if (options.sink) {
    options.sink->count(std::string("analysis.method.") +
                        to_string(options.method));
    options.sink->count("analysis.observations",
                        static_cast<double>(obs.size()));
  }

  // The ESRF is the one order-dependent method: pin the serial sweep to
  // the canonical content order so digests cannot depend on how the
  // batch was assembled (§10).
  const bool canonicalize = options.method == AnalysisMethod::kEsrf;
  const ObsSet canon = canonicalize ? canonical_obs_order(obs) : ObsSet();
  const ObsSet& use = canonicalize ? canon : obs;

  if (!options.localization.enabled)
    return analyze_global(forecast, subspace, use, options);

  ESSEX_REQUIRE(options.grid != nullptr,
                "localized analysis needs grid geometry");
  ESSEX_REQUIRE(options.localization.radius_km > 0.0,
                "localization radius must be positive");
  const ocean::Tiling tiling(*options.grid, options.tiling);
  ESSEX_REQUIRE(tiling.packed_size() == forecast.size(),
                "grid packed size does not match the state");
  if (options.threads > 1) {
    ThreadPool pool(options.threads);
    return analyze_tiled(forecast, subspace, use, tiling,
                         options.localization, &pool, options.method);
  }
  return analyze_tiled(forecast, subspace, use, tiling, options.localization,
                       nullptr, options.method);
}

AnalysisResult analyze(const la::Vector& forecast,
                       const ErrorSubspace& subspace,
                       const obs::ObsOperator& h,
                       const AnalysisOptions& options) {
  ESSEX_REQUIRE(h.count() > 0, "analysis needs at least one observation");
  return analyze(forecast, subspace, ObsSet::from_operator(h), options);
}

}  // namespace essex::esse
