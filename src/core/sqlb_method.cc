#include "core/sqlb_method.h"

#include "common/status.h"
#include "core/scoring.h"

namespace sqlb {

SqlbMethod::SqlbMethod(SqlbOptions options) : options_(options) {
  SQLB_CHECK(options_.epsilon > 0.0, "SQLB requires epsilon > 0");
  if (options_.fixed_omega.has_value()) {
    SQLB_CHECK(*options_.fixed_omega >= 0.0 && *options_.fixed_omega <= 1.0,
               "fixed omega must lie in [0, 1]");
  }
}

AllocationDecision SqlbMethod::Allocate(const AllocationRequest& request) {
  // The AoS view scores through the same column kernel: transpose the
  // three inputs Definition 9 reads.
  const std::size_t n = request.candidates.size();
  aos_provider_intention_.resize(n);
  aos_consumer_intention_.resize(n);
  aos_provider_satisfaction_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CandidateProvider& p = request.candidates[i];
    aos_provider_intention_[i] = p.provider_intention;
    aos_consumer_intention_[i] = p.consumer_intention;
    aos_provider_satisfaction_[i] = p.provider_satisfaction;
  }
  AllocationDecision decision;
  SqlbScoreColumns(aos_provider_intention_.data(),
                   aos_consumer_intention_.data(),
                   aos_provider_satisfaction_.data(), n,
                   request.consumer_satisfaction, options_.epsilon,
                   options_.fixed_omega.has_value() ? &*options_.fixed_omega
                                                    : nullptr,
                   &decision.scores);
  decision.selected = SelectTopN(decision.scores, SelectionCount(request));
  return decision;
}

AllocationDecision SqlbMethod::AllocateColumns(const ColumnarRequest& request) {
  SQLB_CHECK(request.query != nullptr && request.candidates != nullptr,
             "columnar request needs a query and candidates");
  const CandidateColumns& columns = *request.candidates;
  AllocationDecision decision;
  SqlbScoreColumns(columns.provider_intention.data(),
                   columns.consumer_intention.data(),
                   columns.provider_satisfaction.data(), columns.size(),
                   request.consumer_satisfaction, options_.epsilon,
                   options_.fixed_omega.has_value() ? &*options_.fixed_omega
                                                    : nullptr,
                   &decision.scores);
  decision.selected = SelectTopN(
      decision.scores, SelectionCount(*request.query, columns.size()));
  return decision;
}

}  // namespace sqlb
