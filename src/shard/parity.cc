#include "shard/parity.h"

namespace sqlb::shard {

Status ValidateParallelRun(const ParallelRunShape& shape) {
  if (shape.reputation_feedback) {
    return Status::InvalidArgument(
        "parallel shard execution requires reputation_feedback off");
  }
  if (shape.num_shards > 1 && shape.rerouting_enabled) {
    return Status::InvalidArgument(
        "parallel shard execution requires rerouting disabled");
  }
  if (shape.num_shards > 1 && shape.routing != RoutingPolicy::kLocality) {
    return Status::InvalidArgument(
        "parallel shard execution requires consumer-affine (kLocality) "
        "routing; run load-aware policies serially (worker_threads = 0)");
  }
  return Status::OK();
}

}  // namespace sqlb::shard
