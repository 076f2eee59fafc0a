// ESSEX testkit: the frozen reference propagator.
//
// A verbatim copy of the ocean surrogate's step/run loop nest as it stood
// before the propagator was optimised (DESIGN.md §17): every cell goes
// through the general bounds- and land-checked stencil, and every step
// allocates fresh output fields. OceanModel::run and OceanModel::step
// must reproduce it bit for bit; tests/test_ocean.cpp holds them to that
// and bench/bench_model_step times the optimised path against it. Do not
// optimise this file — its slowness and its exact expression order are
// the point.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "ocean/model.hpp"
#include "ocean/state.hpp"

namespace essex::testkit {

/// Reference for OceanModel::step: one step of `model`'s physics.
void reference_ocean_step(const ocean::OceanModel& model,
                          ocean::OceanState& state, double t_hours,
                          double dt_hours, Rng* rng = nullptr);

/// Reference for OceanModel::run: the same sub-stepping as the model,
/// every step through reference_ocean_step. Returns the step count.
std::size_t reference_ocean_run(const ocean::OceanModel& model,
                                ocean::OceanState& state, double t0_hours,
                                double duration_hours, Rng* rng = nullptr);

}  // namespace essex::testkit
