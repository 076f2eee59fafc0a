// ESSEX testkit: the frozen reference TL solver.
//
// A verbatim copy of acoustics::compute_tl as it stood before its ray
// march was optimised (DESIGN.md §19): every march step samples the
// sound speed three times through the full bilinear interpolation,
// recomputing the range weights and cos(theta) each time. compute_tl
// must reproduce it bit for bit; tests/test_acoustics.cpp holds it to
// that and bench/bench_tl_solver times the optimised march against it.
// Do not optimise this file — its slowness and its exact expression
// order are the point.
#pragma once

#include "acoustics/slice.hpp"
#include "acoustics/tl_solver.hpp"

namespace essex::testkit {

/// Reference for acoustics::compute_tl.
acoustics::TLField reference_compute_tl(const acoustics::SoundSpeedSlice& slice,
                                        const acoustics::TLParams& params);

}  // namespace essex::testkit
