#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

/// \file
/// The three workloads. Each fills `result` with its metrics and output
/// checks. With a tracer the run is the traced one: it prints the per-layer
/// metrics; without, the end-to-end metrics.

namespace perfbench {

/// Wall-clock serving: open loop at two fixed offered rates, then a flood.
void RunServeRate(const Options& options, Tracer* tracer, Result* result);

/// DES, one shard, the paper's Table-2 population: scoring-bound.
void RunDesWide(const Options& options, Tracer* tracer, Result* result);

/// DES, eight shards on four lanes, with churn, rebalancing and shard
/// kills: membership writes beside allocation reads.
void RunDesChaos(const Options& options, Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
