#ifndef SQLB_CORE_SCORING_H_
#define SQLB_CORE_SCORING_H_

#include <cstddef>
#include <vector>

/// \file
/// Scoring and ranking of providers (Section 5.3).
///
/// The score of a provider for a query balances the provider's intention to
/// perform it against the consumer's intention to allocate it there
/// (Definition 9). The balance weight omega is derived from the two sides'
/// mediator-visible satisfactions (Eq. 6): the less satisfied side gets the
/// larger say, which is what lets SQLB trade consumers' intentions for
/// providers' intentions "in according to their satisfaction".

namespace sqlb {

/// Eq. 6 — omega = ((sat_consumer - sat_provider) + 1) / 2, in [0, 1].
/// omega = 1 weighs only the provider's intention; omega = 0 only the
/// consumer's. Inputs are satisfactions in [0, 1] (clamped).
double OmegaBalance(double consumer_satisfaction,
                    double provider_satisfaction);

/// Definition 9 — the score of provider p for query q given the provider's
/// intention PI_q[p], the consumer's intention CI_q[p], and the balance
/// omega. epsilon > 0 keeps the negative branch away from zero. Intentions
/// may exceed [-1, 1] on the negative side (see core/intention.h); larger
/// scores are better.
double ProviderScore(double provider_intention, double consumer_intention,
                     double omega, double epsilon = 1.0);

/// Definition 9 over struct-of-arrays columns: fills `scores[i]` with
/// ProviderScore(provider_intention[i], consumer_intention[i], omega_i,
/// epsilon), where omega_i is Eq. 6 over (consumer_satisfaction,
/// provider_satisfaction[i]) — or `*fixed_omega` for all i when non-null
/// (the omega ablation's pinned-omega mode). The SQLB scoring kernel of the
/// mediation hot path: all four inputs are contiguous doubles filled from
/// the characterization cache, so the loop never strides over candidate
/// structs. Both Definition 9 factors of every candidate go through one
/// PowColumn pass (common/pow_kernel.h), the vector form of the scalar
/// BoundedPow; the rest of the arithmetic is per-element identical to
/// ProviderScore — bit-for-bit the scores the AoS loop produces.
void SqlbScoreColumns(const double* provider_intention,
                      const double* consumer_intention,
                      const double* provider_satisfaction, std::size_t count,
                      double consumer_satisfaction, double epsilon,
                      const double* fixed_omega, std::vector<double>* scores);

/// Ranks candidate indices by descending score; ties broken by original
/// index (deterministic). Returns the permutation (the R_q vector of
/// Section 5.3: element 0 is the best-scored provider).
std::vector<std::size_t> RankByScore(const std::vector<double>& scores);

/// Returns the first min(n, scores.size()) entries of RankByScore: the
/// providers Algorithm 1 selects. Uses a partial sort, O(N log n); n = 1 is
/// a linear argmax with the same tie-break.
std::vector<std::size_t> SelectTopN(const std::vector<double>& scores,
                                    std::size_t n);

}  // namespace sqlb

#endif  // SQLB_CORE_SCORING_H_
