// Ocean propagator speed (DESIGN.md §17): how fast does OceanModel::run
// integrate one stochastic ensemble member, against the frozen reference
// loop nest (testkit::reference_ocean_run) compiled into this binary?
//
// Protocol. Two 48×40 grids — the all-water double gyre of the
// forecast_cycle benchmark (nz = 4) and the Monterey domain with its
// coast and bay (nz = 6). Each integrates a 12 h stochastic member on
// one thread, the optimised run and the reference alternating, and
// keeps the fastest of --reps repetitions of each. The two final states
// must be bitwise equal, or the bench fails: a fast wrong step is no
// speedup. Throughput is water cell·steps per second.
//
// The JSON written to results/bench_model_step.json carries the
// `model_step_speedup` kernel (reference time over optimised time,
// summed over both grids) that tools/check_perf.py ratchets. Both sides
// run on the same host, so the ratio ports across machines.
//
// Usage: bench_model_step [--out FILE] [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "ocean/model.hpp"
#include "ocean/monterey.hpp"
#include "testkit/reference_model.hpp"

namespace {

using namespace essex;

// Member length. The checked-in result and the model_step_speedup floor
// in tests/perf_baseline.json were both recorded at this length.
constexpr double kMemberHours = 12.0;

struct GridResult {
  std::string name;
  std::size_t cell_steps = 0;  ///< water cells × steps of one member
  double ref_s = 0.0;          ///< fastest reference member
  double fast_s = 0.0;         ///< fastest optimised member
};

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const ocean::OceanState& a, const ocean::OceanState& b) {
  return bitwise_equal(a.temperature, b.temperature) &&
         bitwise_equal(a.salinity, b.salinity) && bitwise_equal(a.u, b.u) &&
         bitwise_equal(a.v, b.v) && bitwise_equal(a.ssh, b.ssh);
}

template <typename Run>
double time_member(const ocean::Scenario& sc, Run&& run,
                   ocean::OceanState& out) {
  out = sc.initial;
  Rng rng(2009, 1);
  const auto t0 = std::chrono::steady_clock::now();
  run(out, rng);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_model_step.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_model_step [--out FILE] [--reps N]\n";
      return 2;
    }
  }

  struct Named {
    std::string name;
    ocean::Scenario sc;
  };
  const std::vector<Named> grids = {
      {"double-gyre 48x40x4", ocean::make_double_gyre_scenario(48, 40, 4)},
      {"monterey 48x40x6", ocean::make_monterey_scenario(48, 40, 6)},
  };

  std::vector<GridResult> results;
  for (const Named& g : grids) {
    const ocean::OceanModel model(g.sc.grid, g.sc.params,
                                  ocean::WindForcing(g.sc.wind),
                                  g.sc.initial);
    GridResult r;
    r.name = g.name;
    r.ref_s = r.fast_s = 1e300;
    ocean::OceanState fast = g.sc.initial, ref = g.sc.initial;
    std::size_t steps = 0;
    for (int rep = 0; rep < reps; ++rep) {
      r.ref_s = std::min(r.ref_s, time_member(g.sc, [&](auto& s, Rng& rng) {
        testkit::reference_ocean_run(model, s, 0.0, kMemberHours, &rng);
      }, ref));
      r.fast_s = std::min(r.fast_s, time_member(g.sc, [&](auto& s, Rng& rng) {
        steps = model.run(s, 0.0, kMemberHours, &rng);
      }, fast));
    }
    if (!bitwise_equal(fast, ref)) {
      std::cerr << "FAIL: " << g.name
                << ": OceanModel::run differs from the frozen reference\n";
      return 1;
    }
    r.cell_steps = g.sc.grid.water_columns() * g.sc.grid.nz() * steps;
    results.push_back(r);
  }

  double ref_total = 0.0, fast_total = 0.0;
  Table t("OceanModel::run vs the frozen reference (one 12 h member)");
  t.set_header({"grid", "reference ms", "optimised ms",
                "Mcell-steps/s", "speedup"});
  for (const GridResult& r : results) {
    ref_total += r.ref_s;
    fast_total += r.fast_s;
    t.add_row({r.name, Table::num(r.ref_s * 1e3, 2),
               Table::num(r.fast_s * 1e3, 2),
               Table::num(static_cast<double>(r.cell_steps) / r.fast_s / 1e6,
                          1),
               Table::num(r.ref_s / r.fast_s, 2) + "x"});
  }
  t.print(std::cout);
  const double speedup = ref_total / fast_total;
  std::cout << "model_step_speedup " << speedup << "x (bitwise equal)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"shape\": \"one " << kMemberHours
      << " h stochastic member per grid, min of " << reps << " reps\",\n"
      << "  \"grids\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GridResult& r = results[i];
    out << "    {\"grid\": \"" << r.name << "\", \"reference_ms\": "
        << r.ref_s * 1e3 << ", \"optimised_ms\": " << r.fast_s * 1e3
        << ", \"reference_cell_steps_per_s\": "
        << static_cast<double>(r.cell_steps) / r.ref_s
        << ", \"cell_steps_per_s\": "
        << static_cast<double>(r.cell_steps) / r.fast_s << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernels\": [\n"
      << "    {\"name\": \"model_step_speedup\", \"scalar_ms\": "
      << ref_total * 1e3 << ", \"simd_ms\": " << fast_total * 1e3
      << ", \"speedup\": " << speedup << "}\n"
      << "  ],\n  \"skipped\": []\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
