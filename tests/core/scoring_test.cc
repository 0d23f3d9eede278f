#include "core/scoring.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace sqlb {
namespace {

TEST(OmegaBalanceTest, Equation6) {
  // omega = ((sat_c - sat_p) + 1) / 2.
  EXPECT_DOUBLE_EQ(OmegaBalance(0.9, 0.3), 0.8);
  EXPECT_DOUBLE_EQ(OmegaBalance(0.5, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(OmegaBalance(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(OmegaBalance(1.0, 0.0), 1.0);
}

TEST(OmegaBalanceTest, LessSatisfiedSideGetsMoreWeight) {
  // Consumer far more satisfied than provider -> omega towards 1 (the
  // provider's intention dominates the score), and vice versa.
  EXPECT_GT(OmegaBalance(0.9, 0.2), 0.5);
  EXPECT_LT(OmegaBalance(0.2, 0.9), 0.5);
}

TEST(OmegaBalanceTest, ClampsInputs) {
  EXPECT_DOUBLE_EQ(OmegaBalance(2.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(OmegaBalance(-3.0, 7.0), 0.0);
}

TEST(ProviderScoreTest, PositiveBranchGeometricBalance) {
  EXPECT_NEAR(ProviderScore(0.64, 0.25, 0.5), std::sqrt(0.64 * 0.25),
              1e-12);
  EXPECT_DOUBLE_EQ(ProviderScore(0.7, 0.2, 1.0), 0.7);  // provider only
  EXPECT_DOUBLE_EQ(ProviderScore(0.7, 0.2, 0.0), 0.2);  // consumer only
}

TEST(ProviderScoreTest, NegativeBranchFormula) {
  // PI = -1.8 (overloaded provider), CI = 0.7, omega = 0.5, eps = 1:
  // -( (1 + 1.8 + 1)^0.5 * (1 - 0.7 + 1)^0.5 ) = -sqrt(3.8 * 1.3).
  EXPECT_NEAR(ProviderScore(-1.8, 0.7, 0.5), -std::sqrt(3.8 * 1.3), 1e-12);
}

TEST(ProviderScoreTest, MutualDesireBeatsOneSidedDesire) {
  const double mutual = ProviderScore(0.8, 0.8, 0.5);
  const double one_sided = ProviderScore(0.8, -0.2, 0.5);
  EXPECT_GT(mutual, 0.0);
  EXPECT_LT(one_sided, 0.0);
}

TEST(ProviderScoreTest, OverloadedDesiredLosesToIdleUndesired) {
  // The SQLB redistribution property (Section 6.3.1, Figure 4(h)): a
  // heavily overloaded provider the consumer likes (PI deep negative)
  // scores worse than an idle provider the consumer dislikes (PI positive,
  // CI negative but mild).
  const double overloaded_liked = ProviderScore(-1.8, 0.7, 0.5);
  const double idle_disliked = ProviderScore(0.7, -0.7, 0.5);
  EXPECT_GT(idle_disliked, overloaded_liked);
}

TEST(ProviderScoreTest, MonotoneInBothIntentions) {
  // Within each branch, raising either intention never lowers the score.
  for (double omega : {0.2, 0.5, 0.8}) {
    double prev = -100.0;
    for (double pi = -2.0; pi <= 1.0; pi += 0.05) {
      const double v = ProviderScore(pi, 0.6, omega);
      EXPECT_GE(v, prev - 1e-12) << "pi=" << pi << " omega=" << omega;
      prev = v;
    }
    prev = -100.0;
    for (double ci = -1.0; ci <= 1.0; ci += 0.05) {
      const double v = ProviderScore(0.6, ci, omega);
      EXPECT_GE(v, prev - 1e-12) << "ci=" << ci << " omega=" << omega;
      prev = v;
    }
  }
}

TEST(ProviderScoreTest, PositiveBranchAlwaysBeatsNegativeBranch) {
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double positive = ProviderScore(
        rng.Uniform(1e-6, 1.0), rng.Uniform(1e-6, 1.0), rng.NextDouble());
    const double pi = rng.Uniform(-2.5, 1.0);
    const double ci = rng.Uniform(-1.0, 0.0);  // forces negative branch
    const double negative = ProviderScore(pi, ci, rng.NextDouble());
    ASSERT_GT(positive, 0.0);
    ASSERT_LT(negative, 0.0);
  }
}

TEST(ProviderScoreDeathTest, RequiresPositiveEpsilon) {
  EXPECT_DEATH(ProviderScore(0.5, 0.5, 0.5, 0.0), "epsilon");
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SqlbScoreColumnsTest, MatchesProviderScoreBitForBit) {
  Rng rng(19);
  const double pinned[] = {0.0, 0.3, 1.0};
  // Lengths around the kernel's vector width and the column block size.
  for (std::size_t n : {0, 1, 3, 4, 5, 63, 64, 65, 129, 400}) {
    std::vector<double> pi(n), ci(n), psat(n);
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] = rng.Uniform(-2.5, 1.0);
      ci[i] = rng.Uniform(-1.0, 1.0);
      psat[i] = rng.Bernoulli(0.1) ? 1.0 : rng.NextDouble();
    }
    const double csat = rng.NextDouble();
    for (double epsilon : {1.0, 0.25}) {
      std::vector<double> scores;
      SqlbScoreColumns(pi.data(), ci.data(), psat.data(), n, csat, epsilon,
                       nullptr, &scores);
      ASSERT_EQ(scores.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double omega = OmegaBalance(csat, psat[i]);
        ASSERT_EQ(Bits(scores[i]),
                  Bits(ProviderScore(pi[i], ci[i], omega, epsilon)))
            << "n=" << n << " i=" << i;
      }
      for (double omega : pinned) {
        SqlbScoreColumns(pi.data(), ci.data(), psat.data(), n, csat, epsilon,
                         &omega, &scores);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(scores[i]),
                    Bits(ProviderScore(pi[i], ci[i], omega, epsilon)))
              << "n=" << n << " i=" << i << " omega=" << omega;
        }
      }
    }
  }
}

TEST(RankByScoreTest, DescendingWithStableTies) {
  const std::vector<double> scores{0.3, 0.9, 0.3, 1.0};
  const auto order = RankByScore(scores);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(SelectTopNTest, PrefixOfRanking) {
  const std::vector<double> scores{0.3, 0.9, 0.3, 1.0};
  EXPECT_EQ(SelectTopN(scores, 2), (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(SelectTopN(scores, 0), (std::vector<std::size_t>{}));
}

TEST(SelectTopNTest, SingleSelectionTakesTheLowestIndexOfTiedBest) {
  const std::vector<double> scores{0.3, 1.0, -2.0, 1.0, 0.9};
  EXPECT_EQ(SelectTopN(scores, 1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(SelectTopN({-0.5}, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(SelectTopN({}, 1), (std::vector<std::size_t>{}));
}

TEST(SelectTopNTest, NLargerThanSetTakesAll) {
  const std::vector<double> scores{0.1, 0.2};
  EXPECT_EQ(SelectTopN(scores, 10), (std::vector<std::size_t>{1, 0}));
}

TEST(SelectTopNTest, AgreesWithFullRanking) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> scores;
    const std::size_t n = 1 + rng.NextBounded(60);
    for (std::size_t i = 0; i < n; ++i) {
      scores.push_back(rng.Uniform(-3.0, 1.0));
    }
    const auto full = RankByScore(scores);
    const std::size_t take = 1 + rng.NextBounded(n);
    const auto top = SelectTopN(scores, take);
    ASSERT_EQ(top.size(), take);
    for (std::size_t i = 0; i < take; ++i) {
      ASSERT_EQ(scores[top[i]], scores[full[i]]) << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace sqlb
