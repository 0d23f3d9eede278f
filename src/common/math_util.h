#ifndef SQLB_COMMON_MATH_UTIL_H_
#define SQLB_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>

#include "common/pow_kernel.h"

/// \file
/// Small numeric helpers shared by the intention/score formulas (Section 5 of
/// the paper), which are products of powers with exponents in [0, 1].

namespace sqlb {

/// Clamps `x` to [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

/// Clamps an intention-like value to the paper's nominal range [-1, 1]
/// (Section 2). Definitions 7-9 can overshoot this range with epsilon = 1;
/// values recorded into satisfaction windows are clamped so the (x+1)/2
/// mapping stays in [0, 1] (DESIGN.md, fidelity decision 2).
inline double ClampIntention(double x) { return Clamp(x, -1.0, 1.0); }

/// x^e for x >= 0, e in [0, 1]; the common factor shape in Defs. 7-9.
/// The one-lane form of PowColumn (common/pow_kernel.h): bit-identical to
/// a column pass over the same (x, e). Exact at e == 0 (1) and e == 1 (x),
/// which the adaptive-omega score hits whenever one side's satisfaction
/// saturates.
inline double BoundedPow(double x, double e) {
  double result;
  pow_internal::Pow(x, e, result);
  return result;
}

/// True when |a - b| <= eps.
inline bool ApproxEqual(double a, double b, double eps = 1e-12) {
  return std::fabs(a - b) <= eps;
}

/// Linear interpolation between a (t = 0) and b (t = 1).
inline double Lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Maps an intention in [-1, 1] to the satisfaction scale [0, 1] via
/// (x + 1) / 2, the transform used in Eqs. 1-2 and Defs. 4-5.
inline double IntentionToUnit(double intention) {
  return (ClampIntention(intention) + 1.0) / 2.0;
}

}  // namespace sqlb

#endif  // SQLB_COMMON_MATH_UTIL_H_
