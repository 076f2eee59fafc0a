// The SIMD determinism contract, enforced bit by bit (DESIGN.md §13).
//
// Every kernel in the dispatch table must be BITWISE identical to the
// canonical scalar reference on every tier the hardware can run —
// approximate agreement is a failure. The properties quantify over
// essex::testkit generators (tall-skinny shapes, zero-heavy panels,
// rank-deficient and tied-spectrum ensembles) and odd lengths so the
// vector tails, the 8-row panels and the 16-wide register tiles all get
// exercised. Tier forcing uses simd::ScopedLevel, the in-process face
// of the ESSEX_SIMD_LEVEL override; CI additionally replays the
// determinism label under each ESSEX_SIMD_LEVEL value.
#include <gtest/gtest.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdint>
#include <optional>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/proptest.hpp"
#include "common/thread_pool.hpp"
#include "esse/differ.hpp"
#include "linalg/arena.hpp"
#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/simd_impl.hpp"
#include "linalg/svd.hpp"
#include "testkit/generators.hpp"
#include "testkit/reference_subspace.hpp"

namespace essex::la {
namespace {

namespace tk = essex::testkit;

std::vector<simd::Level> all_levels() {
  return {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2};
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;  // memcmp must not see a null pointer
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- dispatch surface --------------------------------------------------

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const simd::Level level : all_levels()) {
    const auto parsed = simd::parse_level(simd::level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  EXPECT_FALSE(simd::parse_level("AVX2").has_value());
}

TEST(SimdDispatch, ActiveLevelNeverExceedsHardware) {
  EXPECT_LE(simd::active_level(), simd::max_supported_level());
  for (const simd::Level level : all_levels()) {
    simd::ScopedLevel force(level);
    EXPECT_LE(simd::active_level(), simd::max_supported_level());
    EXPECT_LE(simd::active_level(), level);
  }
}

TEST(SimdDispatch, ScopedLevelForcesAndRestores) {
  const simd::Level before = simd::active_level();
  {
    simd::ScopedLevel outer(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    {
      simd::ScopedLevel inner(simd::Level::kSse2);
      EXPECT_EQ(simd::active_level(),
                std::min(simd::Level::kSse2, simd::max_supported_level()));
    }
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), before);
}

// ---- reduction kernels: canonical shape on every tier ------------------

TEST(SimdExactness, ReductionKernelsMatchScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd reductions == scalar reference";
  cfg.cases = 60;
  // Odd row counts stress the %4 tails; 2..10 columns stress dot_block's
  // partial fan-in.
  const auto gen = tk::gen_matrix(1, 301, 2, 10);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t m = mat.rows(), nc = mat.cols();
    std::vector<Vector> cols(nc);
    for (std::size_t j = 0; j < nc; ++j) cols[j] = mat.col(j);
    const double* x = cols[0].data();
    const double* y = cols[1].data();

    const double ref_dot = simd::detail::scalar_dot(x, y, m);
    const double ref_ss = simd::detail::scalar_sumsq(x, m);
    double ra, rb, rg;
    simd::detail::scalar_pair_dots(x, y, m, &ra, &rb, &rg);
    // pair_dots must equal its three stand-alone reductions.
    if (!bits_equal(ra, ref_ss) || !bits_equal(rg, ref_dot)) return false;

    for (const simd::Level level : all_levels()) {
      const auto& k = simd::kernels_for(level);
      if (!bits_equal(k.dot(x, y, m), ref_dot)) return false;
      if (!bits_equal(k.sumsq(x, m), ref_ss)) return false;
      double a, b, g;
      k.pair_dots(x, y, m, &a, &b, &g);
      if (!bits_equal(a, ra) || !bits_equal(b, rb) || !bits_equal(g, rg))
        return false;

      // dot_block: every fused lane equals the stand-alone dot.
      const double* ptrs[simd::kDotBlockCols] = {};
      const std::size_t width = std::min(nc, simd::kDotBlockCols);
      for (std::size_t w = 0; w < width; ++w) ptrs[w] = cols[w].data();
      double out[simd::kDotBlockCols];
      k.dot_block(ptrs, width, x, m, out);
      for (std::size_t w = 0; w < width; ++w) {
        if (!bits_equal(out[w], simd::detail::scalar_dot(ptrs[w], x, m)))
          return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- elementwise kernels: per-element mul+add on every tier ------------

TEST(SimdExactness, ElementwiseKernelsMatchScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd elementwise == scalar reference";
  cfg.cases = 60;
  const auto gen = tk::gen_matrix(1, 257, 2, 2);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t m = mat.rows();
    const Vector x = mat.col(0), y = mat.col(1);
    const double alpha = x[0] * 0.37 - y[m - 1];
    const double c = 0.6, s = 0.8;

    Vector ref_y = y, ref_x = x;
    simd::detail::scalar_axpy(alpha, x.data(), ref_y.data(), m);
    simd::detail::scalar_scale(ref_x.data(), alpha, m);
    Vector ref_rx = x, ref_ry = y;
    simd::detail::scalar_rotate(c, s, ref_rx.data(), ref_ry.data(), m);

    for (const simd::Level level : all_levels()) {
      const auto& k = simd::kernels_for(level);
      Vector ty = y;
      k.axpy(alpha, x.data(), ty.data(), m);
      if (!bits_equal(ty, ref_y)) return false;
      Vector tx = x;
      k.scale(tx.data(), alpha, m);
      if (!bits_equal(tx, ref_x)) return false;
      Vector rx = x, ry = y;
      k.rotate(c, s, rx.data(), ry.data(), m);
      if (!bits_equal(rx, ref_rx) || !bits_equal(ry, ref_ry)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- panel kernels: register tiling must not change a single bit -------

struct PanelCase {
  std::size_t rows = 1, p = 1, n = 1;
  std::vector<double> a, b, c;  // rows×p, rows×n, p×n (initial C)
};

tk::Gen<PanelCase> gen_panel() {
  tk::Gen<PanelCase> g;
  g.create = [](Rng& rng) {
    PanelCase pc;
    // Crosses the 8-row panel and 16-wide j-tile boundaries, with tails.
    pc.rows = 1 + rng.uniform_index(41);
    pc.p = 1 + rng.uniform_index(10);
    pc.n = 1 + rng.uniform_index(37);
    pc.a.resize(pc.rows * pc.p);
    pc.b.resize(pc.rows * pc.n);
    pc.c.resize(pc.p * pc.n);
    // ~1/5 exact zeros in A so the zero-skip path is exercised.
    for (auto& v : pc.a) v = rng.uniform_index(5) == 0 ? 0.0 : rng.normal();
    for (auto& v : pc.b) v = rng.normal();
    for (auto& v : pc.c) v = rng.normal();
    return pc;
  };
  return g;
}

TEST(SimdExactness, AtbUpdateMatchesScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd atb_update == scalar triple loop";
  cfg.cases = 80;
  const auto r = tk::check(cfg, gen_panel(), [&](const PanelCase& pc) {
    std::vector<double> ref = pc.c;
    simd::detail::scalar_atb_update(pc.a.data(), pc.b.data(), ref.data(),
                                    pc.rows, pc.p, pc.n);
    for (const simd::Level level : all_levels()) {
      std::vector<double> out = pc.c;
      simd::kernels_for(level).atb_update(pc.a.data(), pc.b.data(),
                                          out.data(), pc.rows, pc.p, pc.n);
      if (!bits_equal(out, ref)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, AbRowMatchesScalarBitwise) {
  tk::PropConfig cfg;
  cfg.name = "simd ab_row == scalar loop";
  cfg.cases = 80;
  const auto r = tk::check(cfg, gen_panel(), [&](const PanelCase& pc) {
    // ab_row: one output row of C = A·B, arow = first row of a (length p
    // plays the k role), b reinterpreted as p×n via its leading rows.
    const std::size_t k = pc.p, n = pc.n;
    std::vector<double> brows(k * n);
    for (std::size_t i = 0; i < brows.size(); ++i)
      brows[i] = pc.b[i % pc.b.size()];
    std::vector<double> ref_row(pc.c.begin(),
                                pc.c.begin() + static_cast<long>(n));
    simd::detail::scalar_ab_row(pc.a.data(), brows.data(), ref_row.data(), k,
                                n);
    for (const simd::Level level : all_levels()) {
      std::vector<double> row(pc.c.begin(),
                              pc.c.begin() + static_cast<long>(n));
      simd::kernels_for(level).ab_row(pc.a.data(), brows.data(), row.data(),
                                      k, n);
      if (!bits_equal(row, ref_row)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, AtbUpdateThinPathMatchesScalarBitwise) {
  // Fewer than 16 output columns: the narrow-vector path of every tier,
  // with whole zero rows in A and panels that end mid-way. The zero rows
  // face infinities in B, so a lost zero-row skip shows up as NaN.
  Rng rng(0x7417, 3);
  for (std::size_t n = 1; n <= 19; ++n) {
    for (const std::size_t rows : {1u, 7u, 8u, 9u, 23u, 64u}) {
      const std::size_t p = 1 + rng.uniform_index(9);
      std::vector<double> a(rows * p), b(rows * n), c(p * n);
      for (std::size_t r = 0; r < rows; ++r) {
        const bool zero_row = r % 3 == 1;
        for (std::size_t i = 0; i < p; ++i)
          a[r * p + i] = zero_row || rng.uniform_index(4) == 0
                             ? 0.0
                             : rng.normal();
      }
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t j = 0; j < n; ++j)
          b[r * n + j] = r % 3 == 1 ? std::numeric_limits<double>::infinity()
                                    : rng.normal();
      for (auto& v : c) v = rng.normal();
      std::vector<double> ref = c;
      simd::detail::scalar_atb_update(a.data(), b.data(), ref.data(), rows,
                                      p, n);
      for (const simd::Level level : all_levels()) {
        std::vector<double> out = c;
        simd::kernels_for(level).atb_update(a.data(), b.data(), out.data(),
                                            rows, p, n);
        ASSERT_TRUE(bits_equal(out, ref))
            << simd::level_name(level) << " n=" << n << " rows=" << rows
            << " p=" << p;
      }
    }
  }
}

// ---- U = A·V·Σ⁻¹: the row-block leaf against the frozen column loop ----

TEST(SimdExactness, ColumnsMatmulMatchesTheFrozenReferenceBitwise) {
  Rng rng(0xC015, 1);
  ThreadPool pool(3);
  for (std::size_t r = 1; r <= 20; ++r) {
    for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 17u, 48u, 64u}) {
      if (r > n) continue;
      const std::size_t m = 1 + rng.uniform_index(70);  // any m mod 4
      std::vector<Vector> store(n, Vector(m));
      std::vector<ColSpan> cols;
      for (Vector& col : store) {
        for (double& x : col)
          x = rng.uniform_index(6) == 0 ? 0.0 : rng.normal();
        cols.push_back(col);
      }
      // Zero and negative coefficients, and one zero σ (its Σ⁻¹ is 0).
      Matrix v(n, r + rng.uniform_index(3));
      for (double& x : v.data())
        x = rng.uniform_index(5) == 0 ? 0.0 : rng.normal();
      Vector inv(r);
      for (std::size_t j = 0; j < r; ++j)
        inv[j] = j == r / 2 ? 0.0 : 1.0 / rng.uniform(0.1, 5.0);
      const double scale = 1.0 / std::sqrt(static_cast<double>(n + 1));
      const Matrix ref_plain = tk::reference_columns_matmul(cols, v, r, scale);
      const Matrix ref = tk::reference_columns_matmul(cols, v, r, scale, inv);
      for (const simd::Level level : all_levels()) {
        simd::ScopedLevel force(level);
        const std::string where = std::string(simd::level_name(level)) +
                                  " r=" + std::to_string(r) +
                                  " n=" + std::to_string(n) +
                                  " m=" + std::to_string(m);
        ASSERT_TRUE(bits_equal(columns_matmul(cols, v, r, scale).data(),
                               ref_plain.data()))
            << where;
        ASSERT_TRUE(bits_equal(
            columns_matmul(cols, v, r, scale, nullptr, inv).data(),
            ref.data()))
            << where;
        // Row partitions over the pool end at any row, not on a block.
        ASSERT_TRUE(bits_equal(
            columns_matmul(cols, v, r, scale, &pool, inv).data(), ref.data()))
            << where << " pooled";
      }
    }
  }
}

TEST(SimdExactness, OnePassSignConventionMatchesPerColumnScan) {
  // Hand-built edge cases: a tie between +x and -x (the first wins), a
  // tie won by a negative entry, an all-zero column, a negative first
  // maximum, a NaN ahead of the maximum.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Matrix> cases = {
      Matrix{{0.5, -0.5, 0.0, -3.0, nan},
             {-0.5, 0.5, 0.0, 2.0, -1.0},
             {0.25, -0.25, 0.0, 3.0, 0.5}},
      Matrix{{0.0}},
      Matrix{{-1.0}},
      Matrix(0, 3),
      Matrix(4, 0),
  };
  Rng rng(0x5161, 2);
  for (int t = 0; t < 40; ++t) {
    Matrix m(1 + rng.uniform_index(60), 1 + rng.uniform_index(12));
    for (double& x : m.data()) {
      // Few distinct magnitudes, so ties are common.
      x = static_cast<double>(rng.uniform_index(5)) *
          (rng.uniform_index(2) == 0 ? -0.5 : 0.5);
    }
    cases.push_back(m);
  }
  for (const Matrix& base : cases) {
    Matrix ref = base, got = base;
    const std::vector<int> ref_signs =
        tk::reference_canonicalize_column_signs(ref);
    EXPECT_EQ(canonicalize_column_signs(got), ref_signs);
    EXPECT_TRUE(bits_equal(got.data(), ref.data()));
  }
}

// ---- whole-kernel cross-tier identity ----------------------------------

TEST(SimdExactness, MatmulFamilyIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "matmul / matmul_at_b / matvec identical across tiers";
  cfg.cases = 25;
  const auto gen = tk::gen_matrix(1, 150, 1, 12);
  const auto r = tk::check(cfg, gen, [&](const Matrix& a) {
    const Matrix b = a;  // AᵀA and A·(AᵀA) exercise both products
    Matrix ref_atb, ref_ab;
    Vector ref_mv;
    {
      simd::ScopedLevel force(simd::Level::kScalar);
      ref_atb = matmul_at_b(a, b);
      ref_ab = matmul(a, ref_atb);
      ref_mv = matvec(a, Vector(a.cols(), 0.5));
    }
    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      if (!bits_equal(matmul_at_b(a, b).data(), ref_atb.data())) return false;
      if (!bits_equal(matmul(a, ref_atb).data(), ref_ab.data())) return false;
      if (!bits_equal(matvec(a, Vector(a.cols(), 0.5)), ref_mv)) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, JacobiSvdIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "one-sided Jacobi SVD identical across tiers";
  cfg.cases = 15;
  // Rank-deficient and tied-spectrum factors are where rotation order
  // sensitivity would surface first.
  tk::SubspaceOpts opts;
  opts.dim_lo = 6;
  opts.dim_hi = 48;
  opts.rank_lo = 2;
  opts.rank_hi = 6;
  opts.allow_rank_deficient = true;
  opts.allow_degenerate = true;
  const auto gen = tk::gen_subspace(opts);
  const auto r = tk::check(cfg, gen, [&](const esse::ErrorSubspace& sub) {
    Matrix a = sub.modes();
    for (std::size_t j = 0; j < a.cols(); ++j)
      for (std::size_t i = 0; i < a.rows(); ++i)
        a(i, j) *= sub.sigmas()[j];
    ThinSvd ref;
    {
      simd::ScopedLevel force(simd::Level::kScalar);
      ref = svd_thin(a, SvdMethod::kOneSidedJacobi);
    }
    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      const ThinSvd got = svd_thin(a, SvdMethod::kOneSidedJacobi);
      if (!bits_equal(got.s, ref.s)) return false;
      if (!bits_equal(got.u.data(), ref.u.data())) return false;
      if (!bits_equal(got.v.data(), ref.v.data())) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, GramBorderRowsMatchPerColumnAppends) {
  tk::PropConfig cfg;
  cfg.name = "fused gram borders == per-column gram_append == la::dot";
  cfg.cases = 30;
  const auto gen = tk::gen_matrix(3, 120, 2, 20);
  const auto r = tk::check(cfg, gen, [&](const Matrix& mat) {
    const std::size_t n = mat.cols();
    std::vector<Vector> store(n);
    for (std::size_t j = 0; j < n; ++j) store[j] = mat.col(j);
    store[n - 1] = store[0];  // exact duplicate: rank-deficient edge
    std::vector<ColSpan> cols(store.begin(), store.end());

    for (const simd::Level level : all_levels()) {
      simd::ScopedLevel force(level);
      const Matrix g = gram_from_columns(cols);
      for (std::size_t j = 0; j < n; ++j) {
        // Row j against the per-column append path...
        Vector row(j);
        gram_append(std::span(cols).first(j), cols[j], row.data());
        for (std::size_t i = 0; i < j; ++i)
          if (!bits_equal(g(j, i), row[i])) return false;
        // ... and against the public dot (canonical on every tier).
        if (!bits_equal(g(j, j), dot(store[j], store[j]))) return false;
        if (j > 0 && !bits_equal(g(j, 0), dot(store[0], store[j])))
          return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, DifferSubspaceIdenticalAcrossTiers) {
  tk::PropConfig cfg;
  cfg.name = "differ subspace identical across tiers";
  cfg.cases = 10;
  const auto gen = tk::gen_ensemble(8, 64, 4, 12);
  const auto r = tk::check(cfg, gen, [&](const tk::EnsembleCase& ec) {
    auto run = [&](simd::Level level) {
      simd::ScopedLevel force(level);
      esse::Differ differ(ec.central);
      for (std::size_t j = 0; j < ec.members.size(); ++j)
        differ.add_member(j, ec.members[j]);
      return differ.subspace(0.99, 0);
    };
    const esse::ErrorSubspace ref = run(simd::Level::kScalar);
    for (const simd::Level level : all_levels()) {
      const esse::ErrorSubspace got = run(level);
      if (!bits_equal(got.sigmas(), ref.sigmas())) return false;
      if (!bits_equal(got.modes().data(), ref.modes().data())) return false;
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(SimdExactness, SubspaceFromViewMatchesTheFrozenReferenceBitwise) {
  tk::PropConfig cfg;
  cfg.name = "subspace_from_view == reference_subspace_from_view";
  cfg.cases = 12;
  const auto gen = tk::gen_ensemble(8, 90, 4, 24);
  ThreadPool pool(2);
  const auto r = tk::check(cfg, gen, [&](const tk::EnsembleCase& ec) {
    esse::Differ differ(ec.central);
    for (std::size_t j = 0; j < ec.members.size(); ++j)
      differ.add_member(j, ec.members[j]);
    const esse::AnomalyView view = differ.view();
    if (view.count() > view.state_dim) return true;  // dense path
    for (const std::size_t max_rank : {std::size_t{0}, std::size_t{3}}) {
      const tk::ReferenceSubspace ref =
          tk::reference_subspace_from_view(view, 0.99, max_rank);
      for (const simd::Level level : all_levels()) {
        simd::ScopedLevel force(level);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const esse::ErrorSubspace got =
              esse::subspace_from_view(view, 0.99, max_rank, p);
          if (!bits_equal(got.sigmas(), ref.sigmas)) return false;
          if (!bits_equal(got.modes().data(), ref.modes.data())) return false;
        }
      }
    }
    return true;
  });
  ASSERT_TRUE(r.ok) << r.message;
}

// ---- AVX2 kernels leave the upper ymm state clean --------------------

// XINUSE bit 2 (XGETBV with ECX = 1): the upper halves of the ymm
// registers hold state. nullopt where the CPU cannot report it.
std::optional<bool> avx_upper_in_use() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(0xD, 1, &a, &b, &c, &d) || (a & 4u) == 0)
    return std::nullopt;
  unsigned lo = 0, hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4u) != 0;
#else
  return std::nullopt;
#endif
}

TEST(SimdDispatch, Avx2KernelsReturnWithCleanUpperState) {
  // A kernel that returns with dirty upper ymm halves makes every
  // legacy-SSE instruction its thread runs afterwards pay a transition
  // penalty (the baseline-compiled ocean propagator ran 2-3x slower).
  if (simd::max_supported_level() != simd::Level::kAvx2 ||
      !avx_upper_in_use().has_value())
    GTEST_SKIP() << "needs AVX2 and XGETBV with ECX = 1";
  const auto& k = simd::kernels_for(simd::Level::kAvx2);
  const std::size_t m = 37, n = 5, r = 7;
  std::vector<Vector> store(n, Vector(m, 0.5));
  std::vector<const double*> cols;
  for (const Vector& c : store) cols.push_back(c.data());
  const Vector v(n * r, 0.25), post(r, 2.0), x(m, 1.0);
  Vector y(m, 1.0), out(m * r), c(r * r, 0.0);
  double d[simd::kDotBlockCols];
  double e = 0, f = 0, g = 0;
  k.row_block_matmul(cols.data(), n, 0, m, 0.5, v.data(), r, r, post.data(),
                     out.data());
  EXPECT_FALSE(*avx_upper_in_use()) << "row_block_matmul";
  k.atb_update(out.data(), v.data(), c.data(), n, r, r);
  EXPECT_FALSE(*avx_upper_in_use()) << "atb_update";
  k.ab_row(x.data(), v.data(), y.data(), n, r);
  EXPECT_FALSE(*avx_upper_in_use()) << "ab_row";
  k.dot_block(cols.data(), n, x.data(), m, d);
  EXPECT_FALSE(*avx_upper_in_use()) << "dot_block";
  k.pair_dots(x.data(), y.data(), m, &e, &f, &g);
  EXPECT_FALSE(*avx_upper_in_use()) << "pair_dots";
  e = k.dot(x.data(), y.data(), m) + k.sumsq(x.data(), m);
  EXPECT_FALSE(*avx_upper_in_use()) << "dot / sumsq";
  k.axpy(0.5, x.data(), y.data(), m);
  k.scale(y.data(), 0.5, m);
  k.rotate(0.6, 0.8, y.data(), out.data(), m);
  EXPECT_FALSE(*avx_upper_in_use()) << "axpy / scale / rotate";
  EXPECT_TRUE(std::isfinite(e + f + g + d[0]));
}

// ---- aligned storage ----------------------------------------------------

TEST(ColumnArena, AllocationsAre64ByteAlignedAndZeroed) {
  ColumnArena arena(128);  // tiny slabs force growth
  std::size_t total = 0;
  std::vector<std::span<double>> spans;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u, 1u}) {
    const std::span<double> s = arena.allocate(n);
    ASSERT_EQ(s.size(), n);
    EXPECT_TRUE(is_aligned(s.data(), 64));
    for (const double v : s) EXPECT_EQ(v, 0.0);
    total += n;
    spans.push_back(s);
  }
  EXPECT_EQ(arena.allocated_doubles(), total);
  EXPECT_GT(arena.slab_count(), 1u);  // growth happened
  // Spans survive slab growth: write through old spans, re-read.
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (double& v : spans[i]) v = static_cast<double>(i + 1);
  arena.allocate(4096);  // oversized request → dedicated slab
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (const double v : spans[i]) ASSERT_EQ(v, static_cast<double>(i + 1));
  EXPECT_EQ(arena.allocate(0).size(), 0u);
}

TEST(AlignedStorage, MatrixAndDifferColumnsSitOnCacheLines) {
  const Matrix m(13, 7, 1.0);
  EXPECT_TRUE(is_aligned(m.data().data(), 64));

  esse::Differ differ(Vector(33, 0.25));
  for (std::size_t j = 0; j < 5; ++j)
    differ.add_member(j, Vector(33, static_cast<double>(j)));
  const esse::AnomalyView v = differ.view();
  ASSERT_TRUE(v.storage != nullptr);
  for (const esse::AnomalyColumn& c : v.columns) {
    EXPECT_EQ(c.anomaly.size(), 33u);
    EXPECT_TRUE(is_aligned(c.anomaly.data(), 64));
  }
}

}  // namespace
}  // namespace essex::la
