// Tests: ESXF product files (state + subspace round trips, corruption
// handling) and Lagrangian drifters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "esse/subspace_io.hpp"
#include "linalg/qr.hpp"
#include "obs/drifters.hpp"
#include "ocean/monterey.hpp"
#include "ocean/state_io.hpp"

namespace essex {
namespace {

// ---- state round trip ----------------------------------------------------------

TEST(StateIo, RoundTripPreservesEveryField) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  ocean::OceanState s = sc.initial;
  Rng rng(1);
  for (auto& v : s.u) v = rng.normal();
  for (auto& v : s.ssh) v = rng.normal();
  const std::string path = "/tmp/essex_state_io_test.esxf";
  ocean::save_state(path, sc.grid, s);
  ocean::OceanState back = ocean::load_state(path, sc.grid);
  EXPECT_DOUBLE_EQ(ocean::state_distance(s, back), 0.0);
  std::remove(path.c_str());
}

TEST(StateIo, RejectsWrongGridShape) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  const std::string path = "/tmp/essex_state_io_shape.esxf";
  ocean::save_state(path, sc.grid, sc.initial);
  ocean::Scenario other = ocean::make_monterey_scenario(20, 14, 4);
  EXPECT_THROW(ocean::load_state(path, other.grid), Error);
  std::remove(path.c_str());
}

TEST(StateIo, RejectsGarbageFile) {
  const std::string path = "/tmp/essex_state_io_garbage.esxf";
  {
    std::ofstream f(path);
    f << "this is not a product file";
  }
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  EXPECT_THROW(ocean::load_state(path, sc.grid), Error);
  std::remove(path.c_str());
}

TEST(StateIo, RejectsMissingFile) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  EXPECT_THROW(ocean::load_state("/nonexistent/nope.esxf", sc.grid), Error);
}

TEST(StateIo, RejectsTruncatedFile) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  const std::string path = "/tmp/essex_state_io_trunc.esxf";
  ocean::save_state(path, sc.grid, sc.initial);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() / 2));
  }
  EXPECT_THROW(ocean::load_state(path, sc.grid), Error);
  std::remove(path.c_str());
}

// ---- subspace round trip ---------------------------------------------------------

TEST(SubspaceIo, RoundTripPreservesModesAndSigmas) {
  Rng rng(2);
  la::Matrix e(40, 5);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {5, 4, 3, 2, 1});
  const std::string path = "/tmp/essex_subspace_io_test.esxf";
  esse::save_subspace(path, sub);
  esse::ErrorSubspace back = esse::load_subspace(path);
  EXPECT_EQ(back.dim(), sub.dim());
  EXPECT_EQ(back.rank(), sub.rank());
  for (std::size_t j = 0; j < sub.rank(); ++j)
    EXPECT_DOUBLE_EQ(back.sigmas()[j], sub.sigmas()[j]);
  la::Matrix diff = back.modes();
  diff -= sub.modes();
  EXPECT_DOUBLE_EQ(diff.max_abs(), 0.0);
  std::remove(path.c_str());
}

TEST(SubspaceIo, EveryHeaderTruncationThrowsTheTruncationError) {
  // A file cut off at ANY point inside the header must throw. The header
  // readers used to return zero-initialised garbage on a short read; a
  // file ending right after the magic then surfaced as "unsupported
  // version" (or worse, sailed through a check that zero satisfies)
  // instead of the truncation error.
  Rng rng(3);
  la::Matrix e(16, 3);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {3, 2, 1});
  const std::string path = "/tmp/essex_subspace_io_short.esxf";
  esse::save_subspace(path, sub);
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  // Header = 4 magic + 4 version + 4 kind + 8 dim + 8 rank = 28 bytes.
  for (std::size_t cut = 0; cut <= 28; ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW(esse::load_subspace(path), Error) << "cut at " << cut;
  }
  // Cut inside the payload: still the truncation error, as before.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 8));
  }
  EXPECT_THROW(esse::load_subspace(path), Error);
  std::remove(path.c_str());
}

// A subspace product whose header announces `dim` x `rank` modes, with
// 64 bytes of payload behind it.
std::string forged_subspace(std::uint64_t dim, std::uint64_t rank) {
  std::ostringstream out(std::ios::binary);
  out.write(ocean::esxf::kMagic, 4);
  const std::uint32_t version = ocean::esxf::kVersion;
  const std::uint32_t kind = ocean::esxf::kKindSubspace;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&kind), sizeof(kind));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  out << std::string(64, '\0');
  return out.str();
}

TEST(SubspaceIo, ForgedSizeThatOverflowsThrowsTheLibraryError) {
  // 2^62 x 4 doubles overflows 64-bit size arithmetic.
  std::istringstream in(forged_subspace(std::uint64_t{1} << 62, 4),
                        std::ios::binary);
  EXPECT_THROW(esse::load_subspace(in, "forged"), Error);
}

TEST(SubspaceIo, ForgedSizeBeyondTheStreamThrowsTheLibraryError) {
  // 2^40 x 4 doubles is 32 TiB: refused before anything is allocated,
  // not escaping as std::bad_alloc.
  std::istringstream in(forged_subspace(std::uint64_t{1} << 40, 4),
                        std::ios::binary);
  try {
    esse::load_subspace(in, "forged");
    FAIL() << "a header announcing more than the stream holds must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(SubspaceIo, StreamAndFileVariantsProduceIdenticalBytes) {
  // The determinism digests (DESIGN.md §10) hash the stream
  // serialization; it must be byte-identical to the product file.
  Rng rng(4);
  la::Matrix e(20, 4);
  for (auto& v : e.data()) v = rng.normal();
  la::orthonormalize_columns(e);
  esse::ErrorSubspace sub(e, {4, 3, 2, 1});
  const std::string path = "/tmp/essex_subspace_io_stream.esxf";
  esse::save_subspace(path, sub);
  std::ifstream in(path, std::ios::binary);
  std::string file_bytes((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  std::ostringstream mem(std::ios::binary);
  esse::save_subspace(mem, sub);
  EXPECT_EQ(mem.str(), file_bytes);
  // And the stream loader round-trips it.
  std::istringstream back(mem.str(), std::ios::binary);
  const esse::ErrorSubspace loaded = esse::load_subspace(back);
  EXPECT_EQ(loaded.rank(), sub.rank());
  la::Matrix diff = loaded.modes();
  diff -= sub.modes();
  EXPECT_DOUBLE_EQ(diff.max_abs(), 0.0);
  std::remove(path.c_str());
}

TEST(SubspaceIo, StateFileIsNotASubspace) {
  ocean::Scenario sc = ocean::make_monterey_scenario(16, 14, 4);
  const std::string path = "/tmp/essex_subspace_kind.esxf";
  ocean::save_state(path, sc.grid, sc.initial);
  EXPECT_THROW(esse::load_subspace(path), Error);
  std::remove(path.c_str());
}

// ---- drifters ----------------------------------------------------------------------

struct DrifterFixture : ::testing::Test {
  void SetUp() override {
    sc = std::make_unique<ocean::Scenario>(
        ocean::make_monterey_scenario(24, 20, 4));
    model = std::make_unique<ocean::OceanModel>(
        sc->grid, sc->params, ocean::WindForcing(sc->wind), sc->initial);
  }
  std::unique_ptr<ocean::Scenario> sc;
  std::unique_ptr<ocean::OceanModel> model;
};

TEST_F(DrifterFixture, ReportsFixesAtRequestedCadence) {
  Rng rng(3);
  auto fixes = obs::advect_drifter(*model, sc->initial, 0.0, 24.0, 40.0,
                                   60.0, 6.0, 0.01, rng);
  ASSERT_GE(fixes.size(), 3u);
  for (std::size_t i = 1; i < fixes.size(); ++i) {
    EXPECT_NEAR(fixes[i].t_hours - fixes[i - 1].t_hours, 6.0, 1.0);
  }
  // SST values are physical.
  for (const auto& f : fixes) {
    EXPECT_GT(f.sst, 5.0);
    EXPECT_LT(f.sst, 20.0);
  }
}

TEST_F(DrifterFixture, MovesWithTheFlow) {
  Rng rng(4);
  // Deploy inside the anticyclonic eddy: the drifter must actually move.
  auto fixes = obs::advect_drifter(*model, sc->initial, 0.0, 48.0, 36.0,
                                   86.0, 12.0, 0.0, rng);
  ASSERT_GE(fixes.size(), 2u);
  const double dx = fixes.back().x_km - fixes.front().x_km;
  const double dy = fixes.back().y_km - fixes.front().y_km;
  EXPECT_GT(std::sqrt(dx * dx + dy * dy), 1.0);  // travelled > 1 km
}

TEST_F(DrifterFixture, RejectsLandDeployment) {
  Rng rng(5);
  const double lx = sc->grid.dx_km() * (sc->grid.nx() - 1);
  EXPECT_THROW(obs::advect_drifter(*model, sc->initial, 0.0, 10.0, lx,
                                   10.0, 1.0, 0.0, rng),
               PreconditionError);
}

TEST_F(DrifterFixture, FixesConvertToAssimilableObservations) {
  Rng rng(6);
  auto fixes = obs::advect_drifter(*model, sc->initial, 0.0, 24.0, 40.0,
                                   60.0, 6.0, 0.02, rng);
  auto set = obs::drifter_observations(fixes, 0.05);
  ASSERT_EQ(set.size(), fixes.size());
  EXPECT_NO_THROW(obs::ObsOperator(sc->grid, set));
  for (const auto& ob : set) {
    EXPECT_EQ(ob.kind, obs::VarKind::kTemperature);
    EXPECT_DOUBLE_EQ(ob.depth_m, 0.0);
    EXPECT_DOUBLE_EQ(ob.noise_std, 0.05);
  }
}

}  // namespace
}  // namespace essex
