// ESSEX: runtime-dispatched SIMD kernels for the linalg hot path.
//
// Every dense kernel the DA pipeline spends real time in — the differ's
// Gram borders, AᵀB products, U = A·V recoveries, Jacobi rotations —
// funnels through the small kernel table below. Three dispatch tiers
// exist (scalar reference, SSE2, AVX2+FMA); the active tier is picked
// once at startup from cpuid, overridable with ESSEX_SIMD_LEVEL for
// testing (values: "scalar", "sse2", "avx2").
//
// ## The determinism contract (DESIGN.md §10, §13)
//
// All tiers of a kernel are BITWISE IDENTICAL — not approximately equal.
// The golden replay harness pins one digest per seeded forecast, and
// that digest must not depend on which machine (or ESSEX_SIMD_LEVEL)
// produced it. Two rules make this possible:
//
// 1. *Elementwise kernels* (axpy, rotate, scale, the rank-1 row updates
//    inside the matmuls) carry no cross-element reduction: each output
//    element is its own rounding chain, so vectorizing over elements is
//    bitwise-free on every tier. These use plain multiply+add — never a
//    fused multiply-add, which would round differently per element.
//
// 2. *Reduction kernels* (dot, sumsq, the Gram border dots, Jacobi's
//    pair products) fix one canonical summation shape shared by every
//    tier: four lane-strided accumulators combined as
//    (acc0+acc2)+(acc1+acc3), each lane advanced with a single-rounded
//    fused multiply-add, and the length%4 tail folded sequentially with
//    fma afterwards. The AVX2 tier computes exactly this with one ymm
//    accumulator; the scalar tier mirrors it with std::fma (correctly
//    rounded by C99, hence bit-identical to the hardware instruction);
//    the SSE2 tier, which has no fused instruction, delegates
//    reductions to the scalar reference and vectorizes only the
//    elementwise kernels.
//
// The fixed-shape reduction trees of matmul_at_b_parallel (kReduceRow-
// Block leaves, DESIGN.md §10) sit ABOVE this layer: kernels here only
// ever vectorize *within* a leaf, never across leaves.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace essex::la::simd {

/// Dispatch tiers, ordered: a CPU that supports tier t supports every
/// tier below it.
enum class Level : int {
  kScalar = 0,  ///< canonical reference (std::fma reductions)
  kSse2 = 1,    ///< SSE2 elementwise kernels, scalar reductions
  kAvx2 = 2,    ///< AVX2 + FMA everywhere
};

/// "scalar" / "sse2" / "avx2".
const char* level_name(Level level);

/// Parse a level name (as accepted in ESSEX_SIMD_LEVEL); nullopt for
/// anything unrecognised.
std::optional<Level> parse_level(std::string_view name);

/// Highest tier this CPU supports (compile-target ∩ cpuid).
Level max_supported_level();

/// The tier kernels() dispatches to: max_supported_level(), clamped by
/// ESSEX_SIMD_LEVEL when set (an env request above hardware support is
/// clamped down, never up), or the innermost active ScopedLevel.
Level active_level();

/// RAII override of active_level() for tests — forces a tier (clamped
/// to hardware support) for the scope's lifetime. Establish before
/// worker threads start touching kernels; the override itself is a
/// relaxed atomic, not a synchronisation point.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int previous_;
};

/// Column fan-in of dot_block: one streaming pass over `x` feeds up to
/// this many cached-column dot products (8 accumulator registers on
/// AVX2). gram_append's blocking and the fused border batches are built
/// on this width.
inline constexpr std::size_t kDotBlockCols = 8;

/// Output columns row_block_matmul keeps in registers per row block (8
/// accumulators, one per column, on every vector tier); wider outputs
/// take several groups over the same cache-resident block of rows.
inline constexpr std::size_t kRowBlockCols = 8;

/// One dispatch tier's kernel set. All pointers are non-null; all
/// lengths are in doubles; src/dst ranges must not overlap unless a
/// kernel documents in-place semantics.
struct KernelTable {
  // ---- canonical reductions (rule 2 above) ----------------------------

  /// Σ x[i]·y[i] in the canonical 4-lane fma shape.
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// Σ x[i]² in the canonical shape.
  double (*sumsq)(const double* x, std::size_t n);

  /// out[w] = dot(cols[w], x) for w < ncols (ncols ≤ kDotBlockCols),
  /// all accumulated in one streaming pass over x. Each out[w] is
  /// bitwise equal to dot(cols[w], x, n).
  void (*dot_block)(const double* const* cols, std::size_t ncols,
                    const double* x, std::size_t n, double* out);

  /// One-sided-Jacobi pair products in a single pass:
  /// alpha = Σ x[i]², beta = Σ y[i]², gamma = Σ x[i]·y[i], each in the
  /// canonical shape (bitwise equal to sumsq/sumsq/dot).
  void (*pair_dots)(const double* x, const double* y, std::size_t n,
                    double* alpha, double* beta, double* gamma);

  // ---- elementwise kernels (rule 1 above) -----------------------------

  /// y[i] += a·x[i] (multiply then add, per element).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(double* x, double s, std::size_t n);

  /// In-place Givens update of two columns:
  /// x[i], y[i] ← c·x[i] − s·y[i], s·x[i] + c·y[i].
  void (*rotate)(double c, double s, double* x, double* y, std::size_t n);

  /// C (p×n, row-major) += Σ_r A[r,:] ⊗ B[r,:] over `rows` rows of the
  /// row-major panels a (rows×p) and b (rows×n): the matmul_at_b leaf
  /// body. Rows accumulate in ascending order per output element with
  /// multiply+add, and a row's contribution to output row i is skipped
  /// entirely when a[r*p+i] == 0 — bitwise identical to the historical
  /// scalar triple loop on every tier.
  void (*atb_update)(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t p, std::size_t n);

  /// crow (length n) += Σ_q arow[q]·B[q,:] over the row-major b (k×n),
  /// q ascending per element, zero arow[q] rows skipped: the C = A·B
  /// per-output-row body, bitwise identical to the historical loop.
  void (*ab_row)(const double* arow, const double* b, double* crow,
                 std::size_t k, std::size_t n);

  /// out (row-major, r wide) = (Σ_c (cols[c][i]·scale)·v[c·ldv + j]) ·
  /// post[j] for lo ≤ i < hi, j < r: the columns_matmul leaf (U = A·V·Σ⁻¹
  /// over column storage). Rows go through in vector-width blocks with
  /// up to kRowBlockCols outputs held in registers, so each block reads
  /// every column once and writes U once. Per element the scaled
  /// coefficient is rounded once, each term is a multiply then an add
  /// into a sum that starts at 0.0, c ascending, and post[j] (skipped
  /// when post is null) multiplies the finished sum once — bitwise
  /// identical on every tier and to testkit::reference_columns_matmul.
  void (*row_block_matmul)(const double* const* cols, std::size_t n,
                           std::size_t lo, std::size_t hi, double scale,
                           const double* v, std::size_t ldv, std::size_t r,
                           const double* post, double* out);
};

/// Kernel table of the active tier (one relaxed atomic load).
const KernelTable& kernels();

/// Kernel table of a specific tier, clamped to hardware support: asking
/// for AVX2 on a non-AVX2 machine returns the best supported tier.
const KernelTable& kernels_for(Level level);

}  // namespace essex::la::simd
