// Core time vocabulary for the simulator.
//
// Time is Newtonian ("real") time t in the paper's inertial reference frame,
// measured in abstract seconds. All clock functions in this codebase are
// piecewise linear in Time, so every conversion between real and clock time
// is closed-form and exact up to the roundings of one multiply and one add
// (never fused into an FMA, see below).
#pragma once

#include <limits>

// Runs are byte-identical only under IEEE-exact double arithmetic, which
// -ffast-math gives up (reassociation, contraction, no NaN/inf). The
// build also pins -ffp-contract=off (CMakeLists.txt).
#ifdef __FAST_MATH__
#error "ftgcs needs IEEE-exact floating point: build without -ffast-math"
#endif

namespace ftgcs::sim {

/// Absolute Newtonian time (seconds).
using Time = double;

/// Difference of two Times (seconds).
using Duration = double;

inline constexpr Time kTimeZero = 0.0;
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Tolerance used by tests when comparing times derived through clock
/// inversions. The simulator itself never compares times with a tolerance.
inline constexpr double kTimeEps = 1e-9;

}  // namespace ftgcs::sim
