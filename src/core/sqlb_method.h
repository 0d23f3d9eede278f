#ifndef SQLB_CORE_SQLB_METHOD_H_
#define SQLB_CORE_SQLB_METHOD_H_

#include <optional>
#include <string>
#include <vector>

#include "core/allocation.h"

/// \file
/// The SQLB allocation method: the scoring/ranking/selection part of
/// Algorithm 1 (Section 5.4). Intention gathering (lines 2-5 of the
/// algorithm) is the mediator's job — runtime/mediation_core.h runs it
/// synchronously for both the DES drivers and the wall-clock serving tier
/// (runtime/serving_mediator.h) — so this class receives intentions already
/// collected in the AllocationRequest.

namespace sqlb {

struct SqlbOptions {
  /// epsilon of Definition 9.
  double epsilon = 1.0;
  /// When set, overrides Eq. 6 with a fixed omega in [0, 1] (Section 5.3
  /// notes one can pin omega for cooperative settings, e.g. omega = 0 to
  /// rank purely by consumer intentions). Used by the omega ablation.
  std::optional<double> fixed_omega;
};

/// Satisfaction-based Query Load Balancing.
class SqlbMethod final : public AllocationMethod {
 public:
  explicit SqlbMethod(SqlbOptions options = {});

  std::string name() const override { return "SQLB"; }

  /// Lines 6-10 of Algorithm 1: per provider, omega from the consumer's and
  /// provider's satisfaction (Eq. 6), score from the two intentions
  /// (Definition 9), then rank and take the q.n best.
  AllocationDecision Allocate(const AllocationRequest& request) override;

  /// Same decision over the SoA candidate layout: the SqlbScoreColumns
  /// kernel runs over the contiguous intention/satisfaction columns, then
  /// SelectTopN — no AoS materialization. Bit-identical to Allocate over
  /// the gathered AoS request.
  AllocationDecision AllocateColumns(const ColumnarRequest& request) override;

  /// Definition 9 reads intentions and satisfactions only — none of the
  /// load/economy columns need to be materialized for SQLB.
  CandidateColumnNeeds RequiredColumns() const override {
    return CandidateColumnNeeds::None();
  }

  const SqlbOptions& options() const { return options_; }

 private:
  SqlbOptions options_;
  // Allocate's transposed inputs, reused across calls.
  std::vector<double> aos_provider_intention_;
  std::vector<double> aos_consumer_intention_;
  std::vector<double> aos_provider_satisfaction_;
};

}  // namespace sqlb

#endif  // SQLB_CORE_SQLB_METHOD_H_
