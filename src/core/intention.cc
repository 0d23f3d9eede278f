#include "core/intention.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"

namespace sqlb {

double ConsumerIntention(double preference, double reputation,
                         const ConsumerIntentionParams& params) {
  SQLB_CHECK(params.epsilon > 0.0, "Definition 7 requires epsilon > 0");
  SQLB_CHECK(params.upsilon >= 0.0 && params.upsilon <= 1.0,
             "Definition 7 requires upsilon in [0, 1]");
  const double prf = Clamp(preference, -1.0, 1.0);
  if (params.mode == ConsumerIntentionMode::kPreferenceOnly) return prf;

  const double rep = Clamp(reputation, -1.0, 1.0);
  const double u = params.upsilon;
  const double eps = params.epsilon;
  if (prf > 0.0 && rep > 0.0) {
    return BoundedPow(prf, u) * BoundedPow(rep, 1.0 - u);
  }
  // Negative branch: the more the preference or the reputation falls short
  // of 1, the stronger the refusal. epsilon keeps the product away from 0
  // when one factor saturates.
  return -(BoundedPow(1.0 - prf + eps, u) *
           BoundedPow(1.0 - rep + eps, 1.0 - u));
}

double ProviderIntention(double preference, double utilization,
                         double preference_satisfaction,
                         const ProviderIntentionParams& params) {
  SQLB_CHECK(params.epsilon > 0.0, "Definition 8 requires epsilon > 0");
  const double prf = Clamp(preference, -1.0, 1.0);
  const double ut = std::max(0.0, utilization);

  switch (params.mode) {
    case ProviderIntentionMode::kPreferenceOnly:
      return prf;
    case ProviderIntentionMode::kUtilizationOnly:
      return 1.0 - 2.0 * std::min(ut, 1.0);
    case ProviderIntentionMode::kSelfBalancing:
      break;
  }

  const double sat = Clamp(preference_satisfaction, 0.0, 1.0);
  const double eps = params.epsilon;
  if (prf > 0.0 && ut < 1.0) {
    // A satisfied provider (sat -> 1) weighs utilization; a dissatisfied
    // one (sat -> 0) weighs its preference (Section 5.2).
    return BoundedPow(prf, 1.0 - sat) * BoundedPow(1.0 - ut, sat);
  }
  return -(BoundedPow(1.0 - prf + eps, 1.0 - sat) *
           BoundedPow(ut + eps, sat));
}

ProviderIntentionEvaluator::ProviderIntentionEvaluator(
    double utilization, double preference_satisfaction,
    const ProviderIntentionParams& params)
    : mode_(params.mode),
      epsilon_(params.epsilon),
      clamped_sat_(Clamp(preference_satisfaction, 0.0, 1.0)),
      one_minus_sat_(1.0 - clamped_sat_),
      utilization_(std::max(0.0, utilization)) {
  SQLB_CHECK(params.epsilon > 0.0, "Definition 8 requires epsilon > 0");
  if (utilization_ < 1.0) {
    positive_state_factor_ = BoundedPow(1.0 - utilization_, clamped_sat_);
  }
  negative_state_factor_ = BoundedPow(utilization_ + epsilon_, clamped_sat_);
  utilization_only_value_ = 1.0 - 2.0 * std::min(utilization_, 1.0);
}

}  // namespace sqlb
