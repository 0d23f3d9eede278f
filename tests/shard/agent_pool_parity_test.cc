#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "core/sqlb_method.h"
#include "mem/chunked_fifo.h"
#include "runtime/mediation_system.h"
#include "shard/shard_router.h"
#include "shard/sharded_mediation_system.h"

/// \file
/// Agent-state chunk accounting (runtime/agent_store.h, mem/): every
/// engine-built provider draws its queue, utilization-log and window chunks
/// from its lane's arena, and a chunk keeps its owner arena for life — a
/// provider moved by a churn handoff or a failover adoption drains chunks
/// into its old shard's arena from its new lane. Serial == parallel
/// bit-identity of the same runs is pinned by the churn, failover and
/// parallel-execution suites; this suite pins where the chunks live.

namespace sqlb::shard {
namespace {

using runtime::FaultSchedule;
using runtime::RunResult;
using runtime::SystemConfig;

SystemConfig SmallConfig(double workload, std::uint64_t seed) {
  SystemConfig config;
  config.population.num_consumers = 20;
  config.population.num_providers = 40;
  config.consumer.window.capacity = 50;
  config.provider.window.capacity = 100;
  config.workload = runtime::WorkloadSpec::Constant(workload);
  config.duration = 300.0;
  config.sample_interval = 25.0;
  config.stats_warmup = 50.0;
  config.seed = seed;
  return config;
}

ShardedMediationSystem::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<SqlbMethod>(); };
}

/// The engine's arenas hold the queue/window chunks of a mono run.
TEST(AgentPoolParityTest, PooledRunReservesArenaPages) {
  SqlbMethod method;
  runtime::MediationSystem system(SmallConfig(1.0, 61), &method);
  const RunResult result = system.Run();
  ASSERT_GT(result.queries_completed, 0u);
  EXPECT_GT(system.engine().agent_store().arena_bytes_reserved(), 0u);
}

/// Chunks the agents hold, against blocks live in the arenas, at the end of
/// a run whose handoffs and kill moved providers (and their resident chunks)
/// between arenas. A chunk drawn from the heap, freed into the wrong arena
/// or leaked by a migration breaks the equality.
std::size_t ExpectArenasHoldEveryAgentChunk(
    const ShardedMediationSystem& system) {
  std::size_t agent_chunks = 0;
  for (const runtime::ProviderAgent& agent : system.engine().providers()) {
    const std::size_t chunk_bytes =
        agent.ResidentBytes() - sizeof(runtime::ProviderAgent);
    EXPECT_EQ(chunk_bytes % mem::kAgentChunkBytes, 0u);
    agent_chunks += chunk_bytes / mem::kAgentChunkBytes;
  }
  EXPECT_GT(agent_chunks, 0u);
  EXPECT_EQ(system.engine().agent_store().arena_blocks_live(), agent_chunks);
  return agent_chunks;
}

TEST(AgentPoolParityTest, ArenaBlocksMatchAgentChunksAcrossChurnAndKill) {
  ShardedSystemConfig config;
  config.base = SmallConfig(1.0, 31);
  config.router.num_shards = 4;
  config.router.policy = RoutingPolicy::kLocality;
  config.rerouting_enabled = false;
  config.rebalance_enabled = true;
  config.rebalance_interval = 40.0;
  // Gut shard 0 (its members leave and later rejoin, which drives
  // seal->drain->transfer handoffs) and kill shard 1 in between (survivors
  // adopt its providers from the snapshot).
  const double duration = config.base.duration;
  config.base.provider_churn = ShardChurnSchedule(
      config.router, /*shard=*/0, config.base.population.num_providers,
      /*leave_at=*/duration / 3.0, /*rejoin_at=*/2.0 * duration / 3.0);
  config.base.shard_faults = FaultSchedule::KillAt(duration / 2.0, 1);

  ShardedMediationSystem serial(config, SqlbFactory());
  const ShardedRunResult serial_run = serial.Run();
  ASSERT_GT(serial_run.run.queries_completed, 0u);
  ASSERT_GT(serial_run.handoffs_completed, 0u);
  ASSERT_EQ(serial_run.shard_crashes, 1u);
  ASSERT_GT(serial_run.restored_providers, 0u);
  EXPECT_EQ(serial.engine().agent_store().arena_count(), 4u);
  const std::size_t serial_chunks = ExpectArenasHoldEveryAgentChunk(serial);

  // On 4 lanes a migrated provider frees into its old arena from another
  // thread; the accounting, and the chunk count itself, must not move.
  ShardedSystemConfig parallel_config = config;
  parallel_config.worker_threads = 4;
  ShardedMediationSystem parallel(parallel_config, SqlbFactory());
  const ShardedRunResult parallel_run = parallel.Run();
  EXPECT_EQ(parallel_run.run.queries_completed,
            serial_run.run.queries_completed);
  EXPECT_EQ(ExpectArenasHoldEveryAgentChunk(parallel), serial_chunks);
}

}  // namespace
}  // namespace sqlb::shard
