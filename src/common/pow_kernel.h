#ifndef SQLB_COMMON_POW_KERNEL_H_
#define SQLB_COMMON_POW_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

/// \file
/// x^y over the bounded domain of Definitions 7-9: every factor of the
/// intention and score formulas is a power with base x >= 0 and exponent
/// y in [0, 1]. The result then lies between x and 1, so it cannot
/// overflow (and is subnormal only where x is), and one branch-free
/// exp(y * log x) serves the whole domain.
///
/// One source, two shapes: Pow() below is written once over GCC vector
/// extensions and instantiated both as a one-lane scalar (BoundedPow in
/// common/math_util.h) and as a kPowLanes-wide vector (PowColumn). Neither
/// shape fuses a multiply with an add (the build never enables FMA, and
/// PowColumn's clones are AVX2 and baseline x86-64 only), so every shape
/// rounds every operation identically: a scalar call and a column pass
/// return the same bits for the same (x, y), on every host. The kernel
/// replaces libm's pow on the mediation path, whose result could depend on
/// which pow variant the C library selected for the host CPU.
///
/// Accuracy: log x is carried as a double-double, the leading part of
/// y * log x is an exact product of 26-bit halves (no FMA needed), and exp
/// uses the fdlibm rational approximation with the low parts carried into
/// its reduction, so the error stays within about one ulp;
/// tests/common/pow_kernel_test.cc pins a relative error <= 1e-14 against
/// std::pow for x in [1e-12, 4]. y = 0 returns exactly 1, y = 1 exactly x,
/// and x = 0 exactly 0 for y > 0.

namespace sqlb {

/// Doubles processed per vector step of PowColumn.
inline constexpr std::size_t kPowLanes = 4;

/// out[i] = x[i]^y[i] for i in [0, n), for x[i] >= 0 finite and y[i] in
/// [0, 1]. Bit-identical to BoundedPow(x[i], y[i]). `out` may alias `x` or
/// `y` exactly (in-place), but not partially overlap them. Dispatches to an
/// AVX2 or a baseline clone at load time; both return the same bits.
void PowColumn(const double* x, const double* y, std::size_t n, double* out);

namespace pow_internal {

typedef double DoubleLanes __attribute__((vector_size(8 * kPowLanes)));
typedef std::uint64_t BitLanes __attribute__((vector_size(8 * kPowLanes)));

/// The unsigned bit-pattern type of a lane type.
template <class D>
struct BitsOf;
template <>
struct BitsOf<double> {
  using type = std::uint64_t;
};
template <>
struct BitsOf<DoubleLanes> {
  using type = BitLanes;
};

// Veltkamp splitter: c * a - (c * a - a) keeps the top 26 bits of a.
constexpr double kSplit = 0x1p27 + 1.0;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 32 significant bits, so k * kLn2Hi is
// exact for every exponent k a double can have.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
// Adding 1.5 * 2^52 rounds a |v| < 2^51 to the nearest integer, which then
// sits in the low mantissa bits.
constexpr double kShifter = 0x1.8p52;
constexpr std::uint64_t kShifterBits = 0x4338000000000000ULL;
// 2^52 as bits: OR-ing an integer below 2^52 into it gives 2^52 + integer.
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
// Keeps sign, exponent and the top 26 significant bits of a double.
constexpr std::uint64_t kTop26Bits = 0xfffffffff8000000ULL;
// kOneBits - bits(sqrt(1/2)): moves the exponent boundary so the mantissa
// lands in [sqrt(1/2), sqrt(2)).
constexpr std::uint64_t kSqrtHalfOffset = 0x00095f619980c433ULL;
// fdlibm log: log(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)), s = f / (2 + f).
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;
// fdlibm exp: exp(r) = 1 + r + r c / (2 - c), c = r - r^2 P(r^2).
constexpr double kP1 = 0x1.555555555553ep-3;
constexpr double kP2 = -0x1.6c16c16bebd93p-9;
constexpr double kP3 = 0x1.1566aaf25de2cp-14;
constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
constexpr double kP5 = 0x1.6376972bea4d0p-25;

/// out = x^y, lane by lane; D is double or DoubleLanes. Branch-free: every
/// lane runs the same operations, and the exact cases are selected at the
/// end. Operands travel by reference so no vector crosses a call boundary.
template <class D>
[[gnu::always_inline]] inline void Pow(const D& x, const D& y, D& out) {
  using U = typename BitsOf<D>::type;
  const D zero{};
  const D one = zero + 1.0;

  // x = 2^k * m with m in [sqrt(1/2), sqrt(2)). A subnormal x is scaled
  // by 2^54 first, and k corrected for it.
  const auto subnormal = x < 0x1p-1022;
  const D xn = subnormal ? x * 0x1p54 : x;
  const D k_offset =
      subnormal ? zero + (0x1p52 + 1077.0) : zero + (0x1p52 + 1023.0);
  const U ix = __builtin_bit_cast(U, xn);
  const U biased_k = (ix + kSqrtHalfOffset) >> 52;
  const D m = __builtin_bit_cast(D, ix - (biased_k << 52) + kOneBits);
  const D k = __builtin_bit_cast(D, biased_k | kTwo52Bits) - k_offset;

  // log m = lm_hi + lm_lo, with f^2 / 2 split exactly (Dekker) so the
  // leading f - f^2 / 2 carries no rounding error.
  const D f = m - 1.0;
  const D s = f / (f + 2.0);
  const D z = s * s;
  const D w = z * z;
  const D w2 = w * w;
  const D r = z * ((kLg1 + w * kLg3) + w2 * (kLg5 + w * kLg7)) +
              w * ((kLg2 + w * kLg4) + w2 * kLg6);
  const D fc = f * kSplit;
  const D fh = fc - (fc - f);
  const D fl = f - fh;
  const D sq = f * f;
  const D sq_err = ((fh * fh - sq) + 2.0 * (fh * fl)) + fl * fl;
  const D hh = 0.5 * sq;
  const D lm_hi = f - hh;
  const D lm_lo = (((f - lm_hi) - hh) - 0.5 * sq_err) + s * (hh + r);

  // log x = lx_hi + lx_lo: k ln 2 joins by an exact two-sum.
  const D kh = k * kLn2Hi;
  const D lx_hi = kh + lm_hi;
  const D kh_part = lx_hi - lm_hi;
  const D lx_lo = ((kh - kh_part) + (lm_hi - (lx_hi - kh_part))) +
                  (lm_lo + k * kLn2Lo);

  // t = y log x = t_hi + t_lo: y and lx_hi cut to their top 26 bits, whose
  // product is exact; t_lo carries the rest.
  const D yh = __builtin_bit_cast(D, __builtin_bit_cast(U, y) & kTop26Bits);
  const D lh =
      __builtin_bit_cast(D, __builtin_bit_cast(U, lx_hi) & kTop26Bits);
  const D t_hi = yh * lh;
  const D t_lo = (y - yh) * lh + y * ((lx_hi - lh) + lx_lo);

  // exp(t) = 2^n exp(hi - lo), |hi - lo| <= ln 2 / 2; hi is exact.
  const D shifted = t_hi * kInvLn2 + kShifter;
  const D n = shifted - kShifter;
  const U n_bits = __builtin_bit_cast(U, shifted) - kShifterBits;
  const D hi = t_hi - n * kLn2Hi;
  const D lo = n * kLn2Lo - t_lo;
  const D red = hi - lo;
  const D red2 = red * red;
  const D red4 = red2 * red2;
  const D c = red - red2 * ((kP1 + red2 * kP2) +
                            red4 * ((kP3 + red2 * kP4) + red4 * kP5));
  const D e = 1.0 - ((lo - (red * c) / (2.0 - c)) - hi);

  // Scale by 2^n through the exponent field. A result near the bottom of
  // the normal range is built 2^64 too large and scaled down by a multiply,
  // which rounds it correctly into the subnormals.
  const auto deep = n < -1000.0;
  const U scale_bits = (deep ? n_bits + 64 : n_bits) << 52;
  D result = __builtin_bit_cast(D, __builtin_bit_cast(U, e) + scale_bits);
  result = deep ? result * 0x1p-64 : result;

  result = x == 0.0 ? zero : result;
  result = y == 1.0 ? x : result;
  out = y == 0.0 ? one : result;
}

/// PowColumn's loop, for the clones to inline: full vector steps, then one
/// padded step over the tail (pad lanes compute 1^0).
[[gnu::always_inline]] inline void PowColumnLoop(const double* x,
                                                 const double* y,
                                                 std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + kPowLanes <= n; i += kPowLanes) {
    DoubleLanes xv;
    DoubleLanes yv;
    std::memcpy(&xv, x + i, sizeof(xv));
    std::memcpy(&yv, y + i, sizeof(yv));
    DoubleLanes result;
    Pow(xv, yv, result);
    std::memcpy(out + i, &result, sizeof(result));
  }
  if (i == n) return;
  DoubleLanes xv = DoubleLanes{} + 1.0;
  DoubleLanes yv{};
  for (std::size_t j = 0; i + j < n; ++j) {
    xv[j] = x[i + j];
    yv[j] = y[i + j];
  }
  DoubleLanes result;
  Pow(xv, yv, result);
  for (std::size_t j = 0; i + j < n; ++j) out[i + j] = result[j];
}

}  // namespace pow_internal

}  // namespace sqlb

#endif  // SQLB_COMMON_POW_KERNEL_H_
