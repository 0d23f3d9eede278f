#ifndef SQLB_SHARD_PARITY_H_
#define SQLB_SHARD_PARITY_H_

#include <cstdint>

#include "common/status.h"
#include "shard/shard_router.h"

/// \file
/// The parity contract of the parallel mediation tier: a wall-clock-
/// parallel run is bit-identical to the serial run for a fixed seed at any
/// thread count. That is only possible when lanes are state-disjoint
/// between barriers, so a parallel run admits only:
///
///   - consumer-affine (kLocality) routing for M > 1 — one lane owns each
///     consumer's window state (load-aware policies run serially);
///   - re-routing off for M > 1 — a mid-epoch bounce would hand a query to
///     a lane that already drained past its time;
///   - reputation feedback off — completion-time reputation writes are
///     read by every shard's intention computation, a global coupling the
///     barrier merge does not cover.

namespace sqlb::shard {

enum class ParityMode : std::uint8_t {
  /// Parallel == serial, bit for bit. The only parallel contract.
  kStrict = 0,
};

/// What the parity contract needs to know about a run to admit it.
struct ParallelRunShape {
  std::size_t num_shards = 1;
  RoutingPolicy routing = RoutingPolicy::kHash;
  bool rerouting_enabled = false;
  bool reputation_feedback = false;
};

/// OK when a parallel run of `shape` can keep bit-identity with its serial
/// twin; kInvalidArgument naming the offending knob otherwise. Serial runs
/// never need this — every configuration is serially executable.
Status ValidateParallelRun(const ParallelRunShape& shape);

}  // namespace sqlb::shard

#endif  // SQLB_SHARD_PARITY_H_
