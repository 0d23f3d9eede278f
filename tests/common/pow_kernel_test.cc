#include "common/pow_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"

namespace sqlb {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The column loop compiled for each clone target the library dispatches
// between, so both are checked on any host that can run them — not only
// the one the loader picked.
void PowColumnBaseline(const double* x, const double* y, std::size_t n,
                       double* out) {
  pow_internal::PowColumnLoop(x, y, n, out);
}
#if defined(__x86_64__)
__attribute__((target("avx2"))) void PowColumnAvx2(const double* x,
                                                   const double* y,
                                                   std::size_t n,
                                                   double* out) {
  pow_internal::PowColumnLoop(x, y, n, out);
}
#endif

using ColumnFn = void (*)(const double*, const double*, std::size_t,
                          double*);

std::vector<ColumnFn> ColumnForms() {
  std::vector<ColumnFn> forms{&PowColumn, &PowColumnBaseline};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) forms.push_back(&PowColumnAvx2);
#endif
  return forms;
}

// x log-uniform over [lo, hi], y uniform over [0, 1].
void RandomInputs(std::uint64_t seed, std::size_t n, double lo, double hi,
                  std::vector<double>* x, std::vector<double>* y) {
  Rng rng(seed);
  x->resize(n);
  y->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*x)[i] = std::exp(rng.Uniform(std::log(lo), std::log(hi)));
    (*y)[i] = rng.NextDouble();
  }
}

TEST(PowKernelTest, RelativeErrorAgainstStdPow) {
  std::vector<double> x;
  std::vector<double> y;
  RandomInputs(21, 200000, 1e-12, 4.0, &x, &y);
  std::vector<double> out(x.size());
  PowColumn(x.data(), y.data(), x.size(), out.data());
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double expected = std::pow(x[i], y[i]);
    const double rel = std::fabs(out[i] - expected) / expected;
    worst = std::max(worst, rel);
    ASSERT_LE(rel, 1e-14) << "x=" << x[i] << " y=" << y[i];
  }
  // Within about one ulp in practice; the bound above is the contract.
  EXPECT_LT(worst, 1e-15);
}

TEST(PowKernelTest, ExactAtTheExponentEndpoints) {
  std::vector<double> x;
  std::vector<double> unused;
  RandomInputs(22, 2000, 1e-300, 1e300, &x, &unused);
  x.insert(x.end(), {0.0, 4.9e-324, 2.2250738585072014e-308, 0.5, 1.0, 2.0,
                     1.7976931348623157e308});
  const std::vector<double> zeros(x.size(), 0.0);
  const std::vector<double> ones(x.size(), 1.0);
  std::vector<double> out(x.size());
  for (ColumnFn column : ColumnForms()) {
    column(x.data(), zeros.data(), x.size(), out.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(out[i], 1.0) << "x=" << x[i];
      ASSERT_EQ(BoundedPow(x[i], 0.0), 1.0) << "x=" << x[i];
    }
    column(x.data(), ones.data(), x.size(), out.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(Bits(out[i]), Bits(x[i])) << "x=" << x[i];
      ASSERT_EQ(Bits(BoundedPow(x[i], 1.0)), Bits(x[i])) << "x=" << x[i];
    }
  }
  EXPECT_EQ(BoundedPow(0.0, 0.5), 0.0);
  EXPECT_EQ(BoundedPow(1.0, 0.37), 1.0);
}

TEST(PowKernelTest, MonotoneInBaseAndExponent) {
  for (double e : {0.001, 0.1, 0.37, 0.5, 0.9, 0.999}) {
    double prev = 0.0;
    for (int i = 0; i <= 4000; ++i) {
      const double x = 1e-12 * std::pow(4e12, i / 4000.0);
      const double v = BoundedPow(x, e);
      ASSERT_GE(v, prev) << "x=" << x << " e=" << e;
      prev = v;
    }
  }
  for (double x : {1e-9, 0.01, 0.4, 0.999, 1.001, 2.5, 4.0}) {
    double prev = BoundedPow(x, 0.0);
    for (int i = 1; i <= 4000; ++i) {
      const double v = BoundedPow(x, i / 4000.0);
      if (x < 1.0) {
        ASSERT_LE(v, prev) << "x=" << x << " e=" << i / 4000.0;
      } else {
        ASSERT_GE(v, prev) << "x=" << x << " e=" << i / 4000.0;
      }
      prev = v;
    }
  }
}

// Outputs every build of the kernel must reproduce bit for bit, whatever
// the build type, sanitizer or clone. The last three differ from a
// correctly rounded pow by one ulp: the table pins this kernel, not libm.
struct PinnedPow {
  double x;
  double y;
  double expected;
};
constexpr PinnedPow kPinned[] = {
    {0x1.19799812dea11p-40, 0x1.3333333333333p-2, 0x1.0763f01e8e5afp-12},
    {0x1.0624dd2f1a9fcp-10, 0x1p-1, 0x1.030dc4ea03a72p-5},
    {0x1.999999999999ap-4, 0x1p-2, 0x1.1feb33c1c381ep-1},
    {0x1.7ae147ae147aep-2, 0x1.6a0902de00d1bp-1, 0x1.faf644bc5e2ecp-2},
    {0x1p-1, 0x1.0624dd2f1a9fcp-10, 0x1.ffa52de61c11fp-1},
    {0x1.ff7ced916872bp-1, 0x1.ff7ced916872bp-1, 0x1.ff7d0f1b0ceccp-1},
    {0x1.8p+0, 0x1p-1, 0x1.3988e1409212ep+0},
    {0x1p+1, 0x1p-3, 0x1.172b83c7d517bp+0},
    {0x1.8p+1, 0x1.3d70a3d70a3d7p-1, 0x1.f9e38e67308b8p+0},
    {0x1p+2, 0x1.ccccccccccccdp-1, 0x1.bdb8cdadbe12p+1},
    {0x1.999999999999ap-1, 0x1.999999999999ap-5, 0x1.fa51bbf85dedep-1},
    {0x1.199999999999ap+1, 0x1.51eb851eb851fp-2, 0x1.4c13d6ff0a4f1p+0},
    {0x1.edd2f1a9fbe77p+6, 0x1.8a3d70a3d70a4p-1, 0x1.4640be2117d92p+5},
    {0x1.7e43c8800759cp+996, 0x1p-1, 0x1.38d352e5096afp+498},
    {0x0.0000000002788p-1022, 0x1.8p-1, 0x1.64bb0a0878cb2p-796},
    {0x1.47ae147ae147bp-1, 0x1p-1, 0x1.999999999999ap-1},
    {0x1.e666666666666p+1, 0x1p-1, 0x1.f3092ece5bc35p+0},
    {0x1p+0, 0x1.ae147ae147ae1p-2, 0x1p+0},
    {0x1.04224b7c5aa54p+1, 0x1.532c8269d591cp-1, 0x1.9982d841e1742p+0},
    {0x1.583f11872a11cp-1, 0x1.32650c1fd3af6p-2, 0x1.c6a89666d85ccp-1},
    {0x1.c92dc3bdedb86p+0, 0x1.489a1bc153355p-2, 0x1.345c0e910269cp+0},
};

TEST(PowKernelTest, PinnedOutputsInEveryForm) {
  std::vector<double> x;
  std::vector<double> y;
  for (const PinnedPow& p : kPinned) {
    x.push_back(p.x);
    y.push_back(p.y);
    EXPECT_EQ(Bits(BoundedPow(p.x, p.y)), Bits(p.expected))
        << std::hexfloat << "x=" << p.x << " y=" << p.y;
  }
  std::vector<double> out(x.size());
  for (ColumnFn column : ColumnForms()) {
    column(x.data(), y.data(), x.size(), out.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(Bits(out[i]), Bits(kPinned[i].expected))
          << std::hexfloat << "x=" << x[i] << " y=" << y[i];
    }
  }
}

TEST(PowKernelTest, ColumnMatchesScalarBitForBit) {
  std::vector<double> x;
  std::vector<double> y;
  RandomInputs(23, 4099, 1e-12, 1e3, &x, &y);
  for (ColumnFn column : ColumnForms()) {
    // Every length up to a few vector steps exercises the padded tail.
    for (std::size_t n = 0; n <= 3 * kPowLanes + 1; ++n) {
      std::vector<double> out(n + 1, -7.0);
      column(x.data(), y.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(out[i]), Bits(BoundedPow(x[i], y[i]))) << "n=" << n;
      }
      EXPECT_EQ(out[n], -7.0) << "wrote past n=" << n;
    }
    std::vector<double> out(x.size());
    column(x.data(), y.data(), x.size(), out.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(Bits(out[i]), Bits(BoundedPow(x[i], y[i])))
          << "x=" << x[i] << " y=" << y[i];
    }
    // In place over the bases.
    std::vector<double> in_place = x;
    column(in_place.data(), y.data(), in_place.size(), in_place.data());
    EXPECT_EQ(in_place, out);
  }
}

}  // namespace
}  // namespace sqlb
