// Milestone subspace check speed (DESIGN.md §20): how fast does
// esse::subspace_from_view turn a differ view into an error subspace,
// against the frozen reference check (testkit::reference_subspace_from_view)
// compiled into this binary?
//
// Protocol. The large_assim benchmark's shape: m = 249,600 (the packed
// state of a 160×120×3 grid) and 48 anomaly columns, planted as eight
// modes with decaying amplitudes plus 1e-3 noise, so the 0.99 variance
// cut keeps about seven modes. The columns are absorbed into an
// esse::Differ once; then each milestone prefix (8, 16, …, 48 members)
// is checked on one thread by both paths, alternating, keeping the
// fastest of --reps repetitions of each. Modes and sigmas must be
// bitwise equal at every milestone, or the bench fails: a fast wrong
// subspace is no speedup.
//
// The JSON written to results/bench_subspace_check.json carries the
// `subspace_check_speedup` kernel (reference time over subspace_from_view
// time, summed over the six milestones) that tools/check_perf.py
// ratchets. Both sides run on the same host, so the ratio ports across
// machines.
//
// Usage: bench_subspace_check [--out FILE] [--reps N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "esse/differ.hpp"
#include "esse/error_subspace.hpp"
#include "testkit/reference_subspace.hpp"

namespace {

using namespace essex;

constexpr std::size_t kStateDim = 249'600;
constexpr std::size_t kMembers = 48;
constexpr std::size_t kMilestone = 8;
constexpr double kVarianceFraction = 0.99;

struct MilestoneResult {
  std::size_t members = 0;
  std::size_t rank = 0;
  double ref_s = 1e300;   ///< fastest reference check
  double fast_s = 1e300;  ///< fastest subspace_from_view
};

template <typename F>
double seconds(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_subspace_check.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_subspace_check [--out FILE] [--reps N]\n";
      return 2;
    }
  }

  // Eight planted modes with decaying amplitudes, then 48 members drawn
  // from them plus small independent noise.
  const std::vector<double> amplitude = {8.0, 6.0, 4.5, 3.0,
                                         2.0, 1.4, 1.0, 0.7};
  Rng rng(20091114, 5);
  std::vector<la::Vector> modes(amplitude.size(), la::Vector(kStateDim));
  const double norm = 1.0 / std::sqrt(static_cast<double>(kStateDim));
  for (la::Vector& e : modes)
    for (double& x : e) x = rng.normal() * norm;
  esse::Differ differ(la::Vector(kStateDim, 0.0));
  la::Vector anomaly(kStateDim);
  for (std::size_t j = 0; j < kMembers; ++j) {
    for (double& x : anomaly) x = rng.normal(0.0, 1e-3);
    for (std::size_t k = 0; k < modes.size(); ++k) {
      const double w = amplitude[k] * rng.normal();
      for (std::size_t i = 0; i < kStateDim; ++i) anomaly[i] += w * modes[k][i];
    }
    differ.add_anomaly(j, anomaly);
  }
  modes.clear();
  const esse::AnomalyView all = differ.view();

  std::vector<MilestoneResult> results;
  for (std::size_t c = kMilestone; c <= kMembers; c += kMilestone) {
    const esse::AnomalyView view = all.prefix(c);
    MilestoneResult res;
    res.members = c;
    testkit::ReferenceSubspace ref;
    esse::ErrorSubspace fast;
    for (int rep = 0; rep < reps; ++rep) {
      res.ref_s = std::min(res.ref_s, seconds([&] {
        ref = testkit::reference_subspace_from_view(view, kVarianceFraction,
                                                    0);
      }));
      res.fast_s = std::min(res.fast_s, seconds([&] {
        fast = esse::subspace_from_view(view, kVarianceFraction, 0);
      }));
    }
    if (fast.sigmas() != ref.sigmas ||
        fast.modes().data().size() != ref.modes.data().size() ||
        !bits_equal(fast.modes().data().data(), ref.modes.data().data(),
                    ref.modes.data().size()) ||
        !bits_equal(fast.sigmas().data(), ref.sigmas.data(),
                    ref.sigmas.size())) {
      std::cerr << "FAIL: " << c
                << " members: subspace_from_view differs from the frozen "
                   "reference\n";
      return 1;
    }
    res.rank = fast.rank();
    results.push_back(res);
  }

  double ref_total = 0.0, fast_total = 0.0;
  Table t("subspace_from_view vs the frozen reference (m = 249,600)");
  t.set_header({"members", "rank", "reference ms", "optimised ms",
                "speedup"});
  for (const MilestoneResult& r : results) {
    ref_total += r.ref_s;
    fast_total += r.fast_s;
    t.add_row({std::to_string(r.members), std::to_string(r.rank),
               Table::num(r.ref_s * 1e3, 2), Table::num(r.fast_s * 1e3, 2),
               Table::num(r.ref_s / r.fast_s, 2) + "x"});
  }
  t.print(std::cout);
  const double speedup = ref_total / fast_total;
  std::cout << "subspace_check_speedup " << speedup << "x (bitwise equal)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"shape\": \"" << kStateDim << " x {8..48} milestone views,"
      << " 0.99 variance, one thread, min of " << reps << " reps\",\n"
      << "  \"milestones\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MilestoneResult& r = results[i];
    out << "    {\"members\": " << r.members << ", \"rank\": " << r.rank
        << ", \"reference_ms\": " << r.ref_s * 1e3
        << ", \"optimised_ms\": " << r.fast_s * 1e3 << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernels\": [\n"
      << "    {\"name\": \"subspace_check_speedup\", \"scalar_ms\": "
      << ref_total * 1e3 << ", \"simd_ms\": " << fast_total * 1e3
      << ", \"speedup\": " << speedup << "}\n"
      << "  ],\n  \"skipped\": []\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
