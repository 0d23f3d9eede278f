// Microbenchmarks: the per-query cost of each allocation method as a
// function of the candidate-set size N. The mediator runs this code once
// per incoming query, so ns/query here bounds the sustainable system
// throughput.
//
// The BM_CoreAllocate{Cached,Uncached} ladder measures the full
// MediationCore::Allocate path (matchmaking, gather, scoring, dispatch,
// completion accounting) over a live provider population of N members,
// with the event-driven characterization cache on vs off — the per-|P_q|
// decomposition of the cache win that the end-to-end scenario benches
// cannot separate. CI gates cached >= 1.3x uncached at N = 1024.
//
// BM_SnapshotExport and BM_DispatchComplete cost the failover layer's two
// per-core hot spots: the crash snapshot taken at every snapshot barrier
// (members 50 and 400 with 2,000 queries in flight, which it must not
// walk) and the in-flight response table every dispatch and completion
// goes through (ns per query dispatched and completed, at a held depth).

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "core/sqlb_method.h"
#include "experiments/experiments.h"
#include "methods/capacity_based.h"
#include "methods/mariposa.h"
#include "model/query.h"
#include "runtime/mediation_core.h"

namespace sqlb {
namespace {

AllocationRequest MakeRequest(Query* query, std::size_t n_candidates,
                              std::uint64_t seed) {
  Rng rng(seed);
  AllocationRequest request;
  request.query = query;
  request.consumer_satisfaction = rng.NextDouble();
  request.candidates.reserve(n_candidates);
  for (std::size_t i = 0; i < n_candidates; ++i) {
    CandidateProvider c;
    c.id = ProviderId(static_cast<std::uint32_t>(i));
    c.consumer_intention = rng.Uniform(-1.0, 1.0);
    c.provider_intention = rng.Uniform(-2.0, 1.0);
    c.provider_satisfaction = rng.NextDouble();
    c.utilization = rng.Uniform(0.0, 1.5);
    c.capacity = rng.Uniform(14.0, 100.0);
    c.backlog_seconds = rng.Uniform(0.0, 30.0);
    c.bid_price = rng.Uniform(0.05, 1.05);
    c.estimated_delay = c.backlog_seconds + 1.4;
    request.candidates.push_back(c);
  }
  return request;
}

template <typename MethodT>
void BenchmarkMethod(benchmark::State& state) {
  Query query;
  query.id = 1;
  query.consumer = ConsumerId(0);
  query.n = 1;
  query.units = 130.0;
  auto request = MakeRequest(&query, static_cast<std::size_t>(state.range(0)),
                             /*seed=*/7);
  MethodT method;
  for (auto _ : state) {
    benchmark::DoNotOptimize(method.Allocate(request));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}

void BM_SqlbAllocate(benchmark::State& state) {
  BenchmarkMethod<SqlbMethod>(state);
}
void BM_CapacityAllocate(benchmark::State& state) {
  BenchmarkMethod<CapacityBasedMethod>(state);
}
void BM_MariposaAllocate(benchmark::State& state) {
  BenchmarkMethod<MariposaMethod>(state);
}

BENCHMARK(BM_SqlbAllocate)->Arg(64)->Arg(256)->Arg(400)->Arg(1024);
BENCHMARK(BM_CapacityAllocate)->Arg(64)->Arg(256)->Arg(400)->Arg(1024);
BENCHMARK(BM_MariposaAllocate)->Arg(64)->Arg(256)->Arg(400)->Arg(1024);

// --- MediationCore ladder: cached vs uncached characterization -------------

/// One live mediation pipeline over N member providers: the Table 2
/// population profile scaled to N, a steady synthetic arrival stream, and
/// the full Allocate path per iteration (service completions drain on the
/// same simulator as time advances).
struct CoreHarness {
  CoreHarness(std::size_t n_providers, bool cache_enabled)
      : config(MakeConfig(n_providers, cache_enabled)),
        population(config.population, config.seed),
        reputation(config.population.num_providers, 0.0, 0.1),
        response_window(500) {
    for (const ProviderProfile& profile : population.providers()) {
      providers.emplace_back(profile, config.provider);
      members.push_back(profile.id.index());
    }
    for (std::size_t c = 0; c < population.num_consumers(); ++c) {
      consumers.emplace_back(ConsumerId(static_cast<std::uint32_t>(c)),
                             config.consumer);
    }
    runtime::MediationCore::Shared shared;
    shared.config = &config;
    shared.population = &population;
    shared.providers = &providers;
    shared.consumers = &consumers;
    shared.reputation = &reputation;
    shared.result = &result;
    shared.response_window = &response_window;
    core.emplace(shared, &method, members);
  }

  static runtime::SystemConfig MakeConfig(std::size_t n_providers,
                                          bool cache_enabled) {
    runtime::SystemConfig config = experiments::PaperConfig(/*seed=*/42);
    config.population.num_providers = n_providers;
    config.population.num_consumers = 64;
    config.record_series = false;
    config.characterization_cache = cache_enabled;
    return config;
  }

  /// Issues one arrival dt seconds after the previous one and mediates it.
  void Step(double dt) {
    now += dt;
    sim.RunUntil(now);  // drain service completions up to the arrival
    MediateArrival();
  }

  /// Mediates one arrival at `now`.
  void MediateArrival() {
    Query query;
    query.id = next_id++;
    query.consumer = ConsumerId(static_cast<std::uint32_t>(
        next_id % consumers.size()));
    query.n = config.query_n;
    query.class_index = static_cast<std::uint32_t>(
        next_id % population.num_query_classes());
    query.units = population.QueryUnits(query.class_index);
    query.issue_time = now;
    benchmark::DoNotOptimize(core->Allocate(sim, query));
  }

  runtime::SystemConfig config;
  Population population;
  std::vector<runtime::ProviderAgent> providers;
  std::vector<runtime::ConsumerAgent> consumers;
  std::vector<std::uint32_t> members;
  runtime::ReputationRegistry reputation;
  runtime::RunResult result;
  WindowedMean response_window;
  SqlbMethod method;
  des::Simulator sim;
  std::optional<runtime::MediationCore> core;
  SimTime now = 0.0;
  std::uint64_t next_id = 0;
};

void BenchmarkCoreAllocate(benchmark::State& state, bool cache_enabled) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CoreHarness harness(n, cache_enabled);
  // Arrival cadence ~40% of aggregate capacity: the queues stay shallow
  // (completions drain between arrivals) while the utilization windows and
  // characterization state see steady churn — the mediation-bound regime
  // where per-query gather cost is the bottleneck.
  const double rate = 0.4 * harness.population.total_capacity() /
                      harness.population.mean_query_units();
  const double dt = 1.0 / rate;
  // Warm the windows and the cache so the measured region is steady-state.
  for (int i = 0; i < 256; ++i) harness.Step(dt);
  for (auto _ : state) {
    harness.Step(dt);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CoreAllocateCached(benchmark::State& state) {
  BenchmarkCoreAllocate(state, /*cache_enabled=*/true);
}
void BM_CoreAllocateUncached(benchmark::State& state) {
  BenchmarkCoreAllocate(state, /*cache_enabled=*/false);
}

BENCHMARK(BM_CoreAllocateCached)->Arg(32)->Arg(256)->Arg(1024);
BENCHMARK(BM_CoreAllocateUncached)->Arg(32)->Arg(256)->Arg(1024);

// --- Failover layer: crash snapshot and in-flight response tracking --------

/// ExportSnapshot over N members while 2,000 dispatched queries are still
/// in flight (issued at one instant, so none completes): the snapshot
/// copies member baselines only, so its cost follows N, not the in-flight
/// count.
void BM_SnapshotExport(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kInFlight = 2000;
  CoreHarness harness(n, /*cache_enabled=*/true);
  for (std::size_t i = 0; i < kInFlight; ++i) harness.MediateArrival();
  if (harness.core->pending_responses() != kInFlight) {
    state.SkipWithError("queries did not stay in flight");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.core->ExportSnapshot(harness.now));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["in_flight"] =
      static_cast<double>(harness.core->pending_responses());
}
BENCHMARK(BM_SnapshotExport)->Arg(50)->Arg(400);

/// One query dispatched and one completed per iteration over 16 members,
/// with the in-flight count held at the argument: each iteration mediates
/// an arrival, then runs the simulator until the depth is back down. The
/// gather and scoring over 16 candidates are small, so the row is
/// dominated by the response table, the completion callback and its DES
/// event; its cost should not grow with the depth.
void BM_DispatchComplete(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  CoreHarness harness(/*n_providers=*/16, /*cache_enabled=*/true);
  auto dispatch_and_complete = [&harness, depth] {
    harness.MediateArrival();
    while (harness.core->pending_responses() > depth && harness.sim.Step()) {
    }
    harness.now = harness.sim.Now();
  };
  // Fill to the depth, then warm the windows at that depth.
  while (harness.core->pending_responses() < depth) harness.MediateArrival();
  for (int i = 0; i < 1024; ++i) dispatch_and_complete();
  const std::uint64_t completed_before = harness.result.queries_completed;
  for (auto _ : state) {
    dispatch_and_complete();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(harness.result.queries_completed -
                                completed_before));
}
BENCHMARK(BM_DispatchComplete)->Arg(64)->Arg(2000);

// Selecting several providers (q.n > 1) exercises the partial sort.
void BM_SqlbAllocateMulti(benchmark::State& state) {
  Query query;
  query.id = 1;
  query.consumer = ConsumerId(0);
  query.n = static_cast<std::uint32_t>(state.range(0));
  query.units = 130.0;
  auto request = MakeRequest(&query, 400, /*seed=*/11);
  SqlbMethod method;
  for (auto _ : state) {
    benchmark::DoNotOptimize(method.Allocate(request));
  }
}
BENCHMARK(BM_SqlbAllocateMulti)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace sqlb

#include "micro_main.h"
SQLB_MICRO_BENCH_MAIN("micro_allocation")
