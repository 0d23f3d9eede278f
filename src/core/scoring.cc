#include "core/scoring.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/math_util.h"
#include "common/pow_kernel.h"
#include "common/status.h"

namespace sqlb {

double OmegaBalance(double consumer_satisfaction,
                    double provider_satisfaction) {
  const double sc = Clamp(consumer_satisfaction, 0.0, 1.0);
  const double sp = Clamp(provider_satisfaction, 0.0, 1.0);
  return ((sc - sp) + 1.0) / 2.0;
}

double ProviderScore(double provider_intention, double consumer_intention,
                     double omega, double epsilon) {
  SQLB_CHECK(epsilon > 0.0, "Definition 9 requires epsilon > 0");
  const double w = Clamp(omega, 0.0, 1.0);
  const double pi = provider_intention;
  const double ci = consumer_intention;
  if (pi > 0.0 && ci > 0.0) {
    return BoundedPow(pi, w) * BoundedPow(ci, 1.0 - w);
  }
  // Negative branch: distance of each intention from full agreement (1),
  // weighted by omega. Intentions below -1 (possible with epsilon = 1 in
  // Defs. 7-8) simply deepen the refusal.
  return -(BoundedPow(1.0 - pi + epsilon, w) *
           BoundedPow(1.0 - ci + epsilon, 1.0 - w));
}

namespace {

// Two lanes of doubles, native on every supported target. The scoring prep
// runs on them to stay branch-free: which Definition 9 branch a candidate
// takes, and whether its satisfaction saturates, is data, and branches on
// it mispredict.
typedef double DoublePair __attribute__((vector_size(16)));

// Elements i and i + 1 of `column`; a lane at or past `end` reads 0.5.
DoublePair LoadPair(const double* column, std::size_t i, std::size_t end) {
  return DoublePair{column[i], i + 1 < end ? column[i + 1] : 0.5};
}

// Clamp(v, 0, 1) per lane, with Clamp's comparisons.
DoublePair ClampUnit(DoublePair v) {
  const DoublePair zero{};
  const DoublePair one = zero + 1.0;
  v = zero < v ? v : zero;
  return v < one ? v : one;
}

}  // namespace

void SqlbScoreColumns(const double* provider_intention,
                      const double* consumer_intention,
                      const double* provider_satisfaction, std::size_t count,
                      double consumer_satisfaction, double epsilon,
                      const double* fixed_omega, std::vector<double>* scores) {
  SQLB_CHECK(epsilon > 0.0, "Definition 9 requires epsilon > 0");
  scores->resize(count);
  double* out = scores->data();
  // Blocks of candidates: both Definition 9 factors of a block — bases and
  // exponents in two halves of one stack column — go through one PowColumn
  // pass, and the products take the branch's sign. Per element this is
  // exactly ProviderScore's arithmetic, so the scores match it bit for bit.
  constexpr std::size_t kBlock = 64;
  double base[2 * kBlock];
  double exponent[2 * kBlock];
  double sign[kBlock];
  const DoublePair one = DoublePair{} + 1.0;
  const DoublePair consumer_sat =
      ClampUnit(DoublePair{} + consumer_satisfaction);
  const DoublePair pinned_omega =
      ClampUnit(DoublePair{} + (fixed_omega != nullptr ? *fixed_omega : 0.0));
  for (std::size_t begin = 0; begin < count; begin += kBlock) {
    const std::size_t len = std::min(kBlock, count - begin);
    // Each half holds whole pairs; an odd block's pad lane raises 0.5s.
    const std::size_t half = (len + 1) & ~std::size_t{1};
    for (std::size_t j = 0; j < len; j += 2) {
      const DoublePair pi = LoadPair(provider_intention + begin, j, len);
      const DoublePair ci = LoadPair(consumer_intention + begin, j, len);
      DoublePair w = pinned_omega;
      if (fixed_omega == nullptr) {
        // Eq. 6 (OmegaBalance), clamped as ProviderScore clamps omega.
        const DoublePair sp =
            ClampUnit(LoadPair(provider_satisfaction + begin, j, len));
        w = ClampUnit(((consumer_sat - sp) + 1.0) / 2.0);
      }
      const auto positive = (pi > 0.0) & (ci > 0.0);
      const DoublePair provider_base = positive ? pi : 1.0 - pi + epsilon;
      const DoublePair consumer_base = positive ? ci : 1.0 - ci + epsilon;
      const DoublePair consumer_exponent = 1.0 - w;
      const DoublePair pair_sign = positive ? one : -one;
      std::memcpy(base + j, &provider_base, sizeof(DoublePair));
      std::memcpy(base + half + j, &consumer_base, sizeof(DoublePair));
      std::memcpy(exponent + j, &w, sizeof(DoublePair));
      std::memcpy(exponent + half + j, &consumer_exponent,
                  sizeof(DoublePair));
      std::memcpy(sign + j, &pair_sign, sizeof(DoublePair));
    }
    PowColumn(base, exponent, 2 * half, base);
    for (std::size_t j = 0; j < len; ++j) {
      out[begin + j] = sign[j] * (base[j] * base[half + j]);
    }
  }
}

std::vector<std::size_t> RankByScore(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

std::vector<std::size_t> SelectTopN(const std::vector<double>& scores,
                                    std::size_t n) {
  if (n == 1 && !scores.empty()) {
    // Algorithm 1's common q.n = 1: a linear argmax. Strict > keeps the
    // lowest index among equal scores — the same tie-break as below.
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[best]) best = i;
    }
    return {best};
  }
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t take = std::min(n, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  order.resize(take);
  return order;
}

}  // namespace sqlb
