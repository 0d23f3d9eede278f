// The two discrete-event workloads, des-wide and des-chaos.
//
// A run simulates a fixed set of scenarios, each a fresh Service::Create +
// Run() on its own scenario seed drawn from the workload seed. Every
// untraced repetition runs in a child process of its own, so its peak
// resident set is its own; the reported figures are medians over
// repetitions, which keeps one unusual scenario from deciding them.
// Repetitions continue, cycling through the scenarios, until the run's wall
// budget is spent.
//
// The traced run pairs an untraced and a traced repetition of its first
// scenarios, both in this process. The traced one hands SqlbMethod to the
// service through the timing decorator (trace.h) and records the facade
// calls as spans; its outputs must equal the untraced twin's exactly.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mediation_system.h"
#include "shard/shard_router.h"
#include "sqlb/service.h"
#include "workload/population.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct DesSpec {
  const char* name = "";
  bool chaos = false;
  /// Simulated seconds per repetition, and the warm-up excluded from the
  /// response-time statistics.
  double horizon = 0.0;
  double warmup = 0.0;
  /// Scenario seeds an untraced run covers at least once.
  std::size_t scenarios = 0;
  /// Scenario seeds the traced run pairs (untraced + traced).
  std::size_t traced_scenarios = 0;
};

constexpr DesSpec kDesWide{"des-wide", false, 400.0, 100.0, 5, 3};
constexpr DesSpec kDesChaos{"des-chaos", true, 3000.0, 500.0, 7, 3};
constexpr std::size_t kChaosShards = 8;
constexpr std::size_t kChaosWorkers = 4;
constexpr std::uint64_t kChaosKillSeed = 1007;
/// Create-only rounds each untraced repetition times for setup_s, after one
/// untimed round, so the samples spread over the whole run.
constexpr std::size_t kSetupsPerRep = 6;

sqlb::Config DesConfig(const DesSpec& spec, std::uint64_t scenario_seed) {
  sqlb::Config config;
  config.mode = sqlb::Mode::kSharded;
  sqlb::runtime::SystemConfig& base = config.scenario();
  // SystemConfig's defaults are the paper's Table-2 population.
  base.seed = DeriveSeed(scenario_seed, 0);
  base.duration = spec.horizon;
  base.stats_warmup = spec.warmup;
  base.workload = sqlb::runtime::WorkloadSpec::Constant(0.95);
  if (!spec.chaos) {
    config.sharded.router.num_shards = 1;
    return config;
  }

  sqlb::shard::ShardedSystemConfig& sharded = config.sharded;
  sharded.router.num_shards = kChaosShards;
  sharded.router.policy = sqlb::shard::RoutingPolicy::kLocality;
  sharded.rerouting_enabled = false;
  sharded.parity = sqlb::shard::ParityMode::kStrict;
  sharded.worker_threads = kChaosWorkers;
  // Static coalescing window sized for bursts of ~8 queries per shard.
  const sqlb::Population population(base.population, base.seed);
  const double arrival_rate =
      sqlb::runtime::NominalMaxArrivalRate(base, population);
  sharded.batch_window =
      std::min(2.0, 8.0 * static_cast<double>(kChaosShards) / arrival_rate);
  sharded.rebalance_enabled = true;
  // Shard 0's providers leave a third into the run and rejoin at two
  // thirds; shards die at random (3 per 1000 sim-s) plus once mid-run. The
  // kill schedule is the fixed one scale_sharding uses: with a kill seed
  // drawn per scenario, one scenario's peak resident set ran anywhere from
  // 53 MB to 3.1 GB (NOTES.md), which no median over a run's scenarios
  // holds steady.
  base.provider_churn = sqlb::shard::ShardChurnSchedule(
      sharded.router, /*shard=*/0, base.population.num_providers,
      spec.horizon / 3.0, 2.0 * spec.horizon / 3.0);
  base.shard_faults = sqlb::runtime::FaultSchedule::RandomKills(
      spec.warmup, spec.horizon - 100.0, /*kills_per_1000s=*/3.0,
      static_cast<std::uint32_t>(kChaosShards), kChaosKillSeed);
  base.shard_faults.Append(
      sqlb::runtime::FaultSchedule::KillAt(spec.horizon / 2.0, /*shard=*/3));
  return config;
}

/// What one repetition produced: the figures the run reports, as plain
/// data so a child process can hand it back through a pipe.
struct Rep {
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t reissued = 0;
  double rt_mean = 0.0;
  double rt_p99 = 0.0;
  double allocsat = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restored = 0;
  std::uint64_t dropped_completions = 0;
  double reissue_delay_p99 = 0.0;
  std::uint64_t handoffs = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t gossip_messages = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t batched_queries = 0;
  double batch_wait_p99 = 0.0;
  double completed_imbalance = 0.0;
  double bytes_per_provider = 0.0;
  double arena_mb = 0.0;
  /// Scoring tallies (traced repetitions only).
  ScoreTally score;
  double score_imbalance = 0.0;
  /// Timed Service::Create calls (untraced repetitions only).
  double setup_s[kSetupsPerRep] = {};
};
static_assert(std::is_trivially_copyable_v<Rep>, "Rep crosses a pipe");

void Summarize(const sqlb::shard::ShardedRunResult& r, Rep* rep) {
  const sqlb::runtime::RunResult& run = r.run;
  rep->issued = run.queries_issued;
  rep->completed = run.queries_completed;
  rep->infeasible = run.queries_infeasible;
  rep->reissued = run.queries_reissued;
  rep->rt_mean = run.response_time.mean();
  rep->rt_p99 = run.ResponseTimeQuantile(0.99);
  const auto* allocsat =
      run.series.Find(sqlb::runtime::MediationSystem::kSeriesConsAllocSatMean);
  if (allocsat != nullptr && !allocsat->samples.empty()) {
    rep->allocsat = allocsat->samples.back().second;
  }
  rep->crashes = r.shard_crashes;
  rep->snapshots = r.snapshots_taken;
  rep->restored = r.restored_providers;
  rep->dropped_completions = r.dropped_completions;
  rep->reissue_delay_p99 =
      run.metrics.HistogramQuantile(sqlb::obs::kMetricReissueDelay, 0.99);
  rep->handoffs = r.handoffs_completed;
  rep->rebalances = r.ring_rebalances;
  rep->gossip_messages = r.gossip_load_messages;
  rep->batch_flushes = r.batch_flushes;
  rep->batched_queries = r.batched_queries;
  rep->batch_wait_p99 =
      run.metrics.HistogramQuantile(sqlb::obs::kMetricBatchWait, 0.99);
  double max_done = 0.0, sum_done = 0.0;
  for (const auto& shard : r.shards) {
    max_done = std::max(max_done, static_cast<double>(shard.allocated));
    sum_done += static_cast<double>(shard.allocated);
  }
  rep->completed_imbalance =
      Ratio(max_done, sum_done / static_cast<double>(r.shards.size()));
  rep->bytes_per_provider =
      Ratio(static_cast<double>(r.agent_state_bytes),
            static_cast<double>(run.initial_providers));
  rep->arena_mb =
      static_cast<double>(r.arena_bytes_reserved) / (1024.0 * 1024.0);
}

Rep RunRep(const DesSpec& spec, std::uint64_t scenario_seed, Tracer* tracer) {
  const sqlb::Config config = DesConfig(spec, scenario_seed);
  ScoringProbes probes(config.sharded.router.num_shards, tracer);
  std::uint64_t rep_id = 0;
  std::int64_t rep_start = 0;
  sqlb::Service::MethodFactory factory = SqlbFactory();
  if (tracer != nullptr) {
    rep_id = tracer->main()->ReserveId();
    rep_start = tracer->NowNs();
    factory = probes.Factory(rep_id);
  }

  Rep rep;
  std::unique_ptr<sqlb::Service> service;
  TimedCall(tracer, "sqlb.Create", rep_id, [&] {
    service = sqlb::Service::Create(config, factory);
  });
  sqlb::shard::ShardedRunResult run;
  rep.run_s =
      TimedCall(tracer, "sqlb.Run", rep_id, [&] { run = service->Run(); });
  service.reset();
  Summarize(run, &rep);
  rep.peak_rss_mb = PeakRssMb();
  if (tracer != nullptr) {
    tracer->main()->Record(spec.name, 0, -1, rep_start, tracer->NowNs(),
                           rep_id);
    rep.score = probes.Total();
    rep.score_imbalance = probes.Imbalance();
  }
  return rep;
}

/// Times kSetupsPerRep Service::Create calls of the scenario into
/// rep->setup_s, after one untimed call.
void SampleSetups(const DesSpec& spec, std::uint64_t scenario_seed,
                  Rep* rep) {
  const sqlb::Config config = DesConfig(spec, scenario_seed);
  for (std::size_t i = 0; i <= kSetupsPerRep; ++i) {
    std::unique_ptr<sqlb::Service> service;
    const double seconds = TimedCall(nullptr, "", 0, [&] {
      service = sqlb::Service::Create(config, SqlbFactory());
    });
    if (i > 0) rep->setup_s[i - 1] = seconds;
  }
}

/// Runs one untraced repetition in a child process, so its peak resident
/// set is its own, then samples set-up time there. False when the child
/// failed.
bool RunRepInChild(const DesSpec& spec, std::uint64_t scenario_seed,
                   Rep* rep) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    Rep out = RunRep(spec, scenario_seed, nullptr);
    SampleSetups(spec, scenario_seed, &out);
    const char* bytes = reinterpret_cast<const char*>(&out);
    std::size_t sent = 0;
    while (sent < sizeof(out)) {
      const ssize_t n = write(fds[1], bytes + sent, sizeof(out) - sent);
      if (n <= 0) _exit(1);
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  char* bytes = reinterpret_cast<char*>(rep);
  std::size_t got = 0;
  while (got < sizeof(Rep)) {
    const ssize_t n = read(fds[0], bytes + got, sizeof(Rep) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == sizeof(Rep) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

/// Output checks every repetition must pass.
void CheckRep(const DesSpec& spec, const Rep& rep, Result* result) {
  const std::string tag = std::string(spec.name) + ": ";
  result->Check(rep.issued > 0, tag + "no query was issued");
  result->Check(rep.completed + rep.infeasible + rep.reissued == rep.issued,
                tag + "conservation broken: completed + infeasible + "
                      "reissued != issued");
  if (spec.chaos) {
    result->Check(rep.crashes > 0,
                  tag + "no shard crashed: the kill schedule did not run");
    result->Check(rep.handoffs > 0,
                  tag + "no provider handoff: the churn did not run");
  }
}

void CheckTransparent(const DesSpec& spec, const Rep& plain,
                      const Rep& traced, Result* result) {
  result->Check(plain.issued == traced.issued &&
                    plain.completed == traced.completed &&
                    plain.reissued == traced.reissued &&
                    plain.rt_mean == traced.rt_mean &&
                    plain.allocsat == traced.allocsat,
                std::string(spec.name) +
                    ": the traced run's outputs differ from the untraced "
                    "run's (the scoring decorator is not transparent)");
}

double Throughput(const Rep& rep) {
  return Ratio(static_cast<double>(rep.completed), rep.run_s);
}

/// Median over `reps` of `field(rep)`.
template <typename Field>
double MedianOf(const std::vector<Rep>& reps, Field field) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(field(rep));
  return Median(values);
}

/// The paper's quality figures and the failure shares, as medians over
/// `reps`: informational lines in the untraced run, per-layer metrics in
/// the traced one.
void SetQuality(const std::vector<Rep>& reps, Result* result) {
  result->Set("rt_mean_sim_s",
              MedianOf(reps, [](const Rep& r) { return r.rt_mean; }));
  result->Set("rt_p99_sim_s",
              MedianOf(reps, [](const Rep& r) { return r.rt_p99; }));
  result->Set("consumer_allocsat",
              MedianOf(reps, [](const Rep& r) { return r.allocsat; }));
  result->Set("failed_frac", MedianOf(reps, [](const Rep& r) {
                return Ratio(static_cast<double>(r.infeasible),
                             static_cast<double>(r.issued));
              }));
  result->Set("reissued_frac", MedianOf(reps, [](const Rep& r) {
                return Ratio(static_cast<double>(r.reissued),
                             static_cast<double>(r.issued));
              }));
}

void SetEndToEnd(const DesSpec& spec, const std::vector<Rep>& reps,
                 Result* result) {
  std::vector<double> setups;
  for (const Rep& rep : reps) {
    setups.insert(setups.end(), std::begin(rep.setup_s),
                  std::end(rep.setup_s));
  }
  // Quality and memory come from one pass over the scenarios, so they do
  // not depend on how many repetitions the wall budget allowed.
  const std::vector<Rep> scenarios(reps.begin(),
                                   reps.begin() + spec.scenarios);
  result->Set("setup_s", Median(setups));
  result->Set("throughput_qps", MedianOf(reps, Throughput));
  result->Set("completed_frac", MedianOf(scenarios, [](const Rep& r) {
                return Ratio(static_cast<double>(r.completed),
                             static_cast<double>(r.issued));
              }));
  result->Set("peak_rss_mb",
              MedianOf(scenarios, [](const Rep& r) { return r.peak_rss_mb; }));
  SetQuality(scenarios, result);
}

void SetPerLayer(const DesSpec& spec, const std::vector<Rep>& plain,
                 const std::vector<Rep>& traced, Result* result) {
  const double lanes = spec.chaos ? static_cast<double>(kChaosWorkers) : 1.0;
  SetQuality(traced, result);
  result->Set("core.score_ns_per_query", MedianOf(traced, [](const Rep& r) {
                return Ratio(static_cast<double>(r.score.ns),
                             static_cast<double>(r.score.queries));
              }));
  result->Set("core.score_share", MedianOf(traced, [&](const Rep& r) {
                return Ratio(static_cast<double>(r.score.ns),
                             lanes * r.run_s * 1e9);
              }));
  result->Set("core.candidates_per_query",
              MedianOf(traced, [](const Rep& r) {
                return Ratio(static_cast<double>(r.score.candidates),
                             static_cast<double>(r.score.queries));
              }));
  result->Set("core.queries_per_call", MedianOf(traced, [](const Rep& r) {
                return Ratio(static_cast<double>(r.score.queries),
                             static_cast<double>(r.score.calls));
              }));
  // Everything in Run() that is not scoring: gather, the characterization
  // cache, dispatch, DES events and barrier waits.
  result->Set("mediation.other_ns_per_query",
              MedianOf(traced, [&](const Rep& r) {
                return Ratio(lanes * r.run_s * 1e9 -
                                 static_cast<double>(r.score.ns),
                             static_cast<double>(r.completed));
              }));
  result->Set("batch.queries_per_flush", MedianOf(traced, [](const Rep& r) {
                return Ratio(static_cast<double>(r.batched_queries),
                             static_cast<double>(r.batch_flushes));
              }));
  result->Set("batch.wait_p99_sim_s",
              MedianOf(traced, [](const Rep& r) { return r.batch_wait_p99; }));
  result->Set("shard.score_imbalance", MedianOf(traced, [](const Rep& r) {
                return r.score_imbalance;
              }));
  result->Set("shard.completed_imbalance",
              MedianOf(traced,
                       [](const Rep& r) { return r.completed_imbalance; }));
  const auto count = [&](std::uint64_t Rep::*field) {
    return MedianOf(traced, [field](const Rep& r) {
      return static_cast<double>(r.*field);
    });
  };
  result->Set("shard.gossip_messages", count(&Rep::gossip_messages));
  result->Set("shard.handoffs", count(&Rep::handoffs));
  result->Set("shard.rebalances", count(&Rep::rebalances));
  result->Set("failover.crashes", count(&Rep::crashes));
  result->Set("failover.snapshots", count(&Rep::snapshots));
  result->Set("failover.reissued", count(&Rep::reissued));
  result->Set("failover.restored_providers", count(&Rep::restored));
  result->Set("failover.dropped_completions",
              count(&Rep::dropped_completions));
  result->Set("failover.reissue_delay_p99_sim_s",
              MedianOf(traced,
                       [](const Rep& r) { return r.reissue_delay_p99; }));
  result->Set("mem.bytes_per_provider",
              MedianOf(traced,
                       [](const Rep& r) { return r.bytes_per_provider; }));
  result->Set("mem.arena_mb",
              MedianOf(traced, [](const Rep& r) { return r.arena_mb; }));
  result->Set("trace.overhead_frac", 1.0 - Ratio(MedianOf(traced, Throughput),
                                                 MedianOf(plain, Throughput)));
}

void RunDes(const DesSpec& spec, const Options& options, Tracer* tracer,
            Result* result) {
  const Clock::time_point begin = Clock::now();
  const std::size_t scenarios =
      tracer != nullptr ? spec.traced_scenarios : spec.scenarios;
  std::vector<Rep> plain, traced;
  for (std::size_t i = 0;
       i < scenarios ||
       (tracer == nullptr && SecondsBetween(begin, Clock::now()) <
                                 options.seconds);
       ++i) {
    const std::uint64_t scenario_seed = DeriveSeed(options.seed, i % scenarios);
    // The traced run compares twins in this one process; only the
    // untraced run reports peak memory, so only it needs the children.
    Rep rep;
    if (tracer != nullptr) {
      rep = RunRep(spec, scenario_seed, nullptr);
    } else if (!RunRepInChild(spec, scenario_seed, &rep)) {
      result->Check(false, std::string(spec.name) +
                               ": a repetition's child process failed");
      return;
    }
    CheckRep(spec, rep, result);
    plain.push_back(rep);
    result->attempted += rep.issued;
    result->failed += rep.infeasible;
    if (tracer != nullptr) {
      traced.push_back(RunRep(spec, scenario_seed, tracer));
      CheckRep(spec, traced.back(), result);
      CheckTransparent(spec, plain.back(), traced.back(), result);
    }
  }

  if (tracer != nullptr) {
    SetPerLayer(spec, plain, traced, result);
    return;
  }
  SetEndToEnd(spec, plain, result);
}

}  // namespace

void RunDesWide(const Options& options, Tracer* tracer, Result* result) {
  RunDes(kDesWide, options, tracer, result);
}

void RunDesChaos(const Options& options, Tracer* tracer, Result* result) {
  RunDes(kDesChaos, options, tracer, result);
}

}  // namespace perfbench
