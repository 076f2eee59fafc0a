// TL solver speed (DESIGN.md §19): how fast does acoustics::compute_tl
// trace one transmission-loss field, against the frozen reference solver
// (testkit::reference_compute_tl) compiled into this binary?
//
// Protocol. The cross-shelf 64×32 section of the acoustic_uncertainty
// benchmark, extracted from the Monterey 48×40×6 initial state, with a
// 121-ray fan at 1 kHz from three source depths (10, 30 and 60 m). Each
// field is traced on one thread, the optimised solver and the reference
// alternating, keeping the fastest of --reps repetitions of each. The
// two fields must be bitwise equal, or the bench fails: a fast wrong
// field is no speedup. The ensemble fan-out over cores is not timed
// here; it shows in the acoustic_uncertainty benchmark.
//
// The JSON written to results/bench_tl_solver.json carries the
// `tl_solver_speedup` kernel (reference time over optimised time, summed
// over the three sources) that tools/check_perf.py ratchets. Both sides
// run on the same host, so the ratio ports across machines.
//
// Usage: bench_tl_solver [--out FILE] [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "acoustics/slice.hpp"
#include "acoustics/tl_solver.hpp"
#include "common/table.hpp"
#include "ocean/monterey.hpp"
#include "testkit/reference_tl.hpp"

namespace {

using namespace essex;

struct SourceResult {
  double depth_m = 0.0;
  double ref_s = 1e300;   ///< fastest reference field
  double fast_s = 1e300;  ///< fastest optimised field
};

template <typename Solve>
double time_field(Solve&& solve, acoustics::TLField& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = solve();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_tl_solver.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_tl_solver [--out FILE] [--reps N]\n";
      return 2;
    }
  }

  const ocean::Scenario sc = ocean::make_monterey_scenario(48, 40, 6);
  acoustics::SliceGeometry geom;
  geom.x0_km = 4.0;
  geom.y0_km = 0.55 * sc.grid.dy_km() * static_cast<double>(sc.grid.ny() - 1);
  geom.x1_km = 0.72 * sc.grid.dx_km() * static_cast<double>(sc.grid.nx() - 1);
  geom.y1_km = geom.y0_km;
  geom.n_range = 64;
  geom.n_depth = 32;
  geom.max_depth_m = 200.0;
  const acoustics::SoundSpeedSlice slice =
      acoustics::extract_slice(sc.grid, sc.initial, geom);

  std::vector<SourceResult> results;
  for (double depth : {10.0, 30.0, 60.0}) {
    acoustics::TLParams p;
    p.source_depth_m = depth;
    p.frequency_khz = 1.0;
    p.n_rays = 121;
    SourceResult r;
    r.depth_m = depth;
    acoustics::TLField fast, ref;
    for (int rep = 0; rep < reps; ++rep) {
      r.ref_s = std::min(r.ref_s, time_field([&] {
        return testkit::reference_compute_tl(slice, p);
      }, ref));
      r.fast_s = std::min(r.fast_s, time_field([&] {
        return acoustics::compute_tl(slice, p);
      }, fast));
    }
    if (fast.tl.size() != ref.tl.size() ||
        std::memcmp(fast.tl.data(), ref.tl.data(),
                    fast.tl.size() * sizeof(double)) != 0) {
      std::cerr << "FAIL: source " << depth
                << " m: compute_tl differs from the frozen reference\n";
      return 1;
    }
    results.push_back(r);
  }

  double ref_total = 0.0, fast_total = 0.0;
  Table t("compute_tl vs the frozen reference (64x32 section, 121 rays)");
  t.set_header({"source depth (m)", "reference ms", "optimised ms",
                "speedup"});
  for (const SourceResult& r : results) {
    ref_total += r.ref_s;
    fast_total += r.fast_s;
    t.add_row({Table::num(r.depth_m, 0), Table::num(r.ref_s * 1e3, 2),
               Table::num(r.fast_s * 1e3, 2),
               Table::num(r.ref_s / r.fast_s, 2) + "x"});
  }
  t.print(std::cout);
  const double speedup = ref_total / fast_total;
  std::cout << "tl_solver_speedup " << speedup << "x (bitwise equal)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"shape\": \"one 64x32 TL field, 121 rays, 1 kHz, per source"
      << " depth, min of " << reps << " reps\",\n"
      << "  \"sources\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SourceResult& r = results[i];
    out << "    {\"source_depth_m\": " << r.depth_m
        << ", \"reference_ms\": " << r.ref_s * 1e3
        << ", \"optimised_ms\": " << r.fast_s * 1e3 << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernels\": [\n"
      << "    {\"name\": \"tl_solver_speedup\", \"scalar_ms\": "
      << ref_total * 1e3 << ", \"simd_ms\": " << fast_total * 1e3
      << ", \"speedup\": " << speedup << "}\n"
      << "  ],\n  \"skipped\": []\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
