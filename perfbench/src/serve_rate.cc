// The serve-rate workload: the wall-clock serving tier (Mode::kServing,
// 4 shards in 2 mediator groups, 2 producer threads, 24 consumers x 48
// providers, so 12 candidates per query).
//
// Phases, each on a fresh Service:
//   low    open loop at kLowQps (Poisson arrivals, no retry on shed): the
//          mediator parks between queries and is woken for almost each one.
//          This phase is recorded and replayed through the DES oracle.
//   high   open loop at kHighQps: the mediator stays hot and bursts form.
//   flood  producers submit flat out, retrying on shed: the ceiling.
//
// Latency is timed from each request's due time to its mediation. The
// mediation instant comes from the recorded trace: the flush time of the
// burst that carried the request, converted back to wall time through the
// tier's time scale. Each consumer is owned by one producer, so every
// shard's intake queue has one writer and its recorded queries are exactly
// that producer's accepted requests in order; the pairing is checked query
// by query (consumer and class).

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mediation_core.h"
#include "sqlb/service.h"
#include "workload/population.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kGroups = 2;
constexpr std::uint32_t kProducers = 2;
constexpr std::size_t kConsumers = 24;
constexpr std::size_t kProviders = 48;
/// The two fixed offered rates (queries per wall second, both producers).
constexpr double kLowQps = 20000.0;
constexpr double kHighQps = 200000.0;
/// Provider utilization the high rate offers; sets the tier's time scale.
constexpr double kHighUtilization = 0.5;
/// The floods run this many times faster in sim time, so provider capacity
/// stays ahead of them: a flood measures the mediator, not a growing
/// provider backlog.
constexpr double kFloodTimeScale = 10.0;
/// Share of --seconds each phase runs for (the flood runs kFloods times).
constexpr double kLowShare = 0.15;
constexpr double kHighShare = 0.07;
/// Each open-loop phase is cut into this many equal windows; its latency
/// figures are medians of the per-window quantiles, so one stall of the
/// host does not decide them.
constexpr std::size_t kWindows = 10;
constexpr double kFloodShare = 0.04;
constexpr std::size_t kFloods = 15;
/// Create/Start/Stop rounds timed after each untraced flood for setup_s, so
/// the samples spread over the run; untimed warm-up rounds before the first
/// (the phases' own set-ups run on a cold allocator and are not sampled).
constexpr std::size_t kSetupsPerFlood = 3;
constexpr std::size_t kSetupWarmups = 3;
/// Submit spans are recorded for one request in this many.
constexpr std::uint64_t kSubmitSpanEvery = 16;

struct Request {
  /// Due time, seconds after the phase's schedule start.
  double due_s = 0.0;
  std::uint32_t consumer = 0;
  std::uint32_t class_index = 0;
};

std::uint32_t NumClasses() {
  return static_cast<std::uint32_t>(
      sqlb::runtime::SystemConfig().population.query_class_units.size());
}

/// Producer p owns consumers p, p + kProducers, ...: a consumer's queries
/// always come from one thread.
std::uint32_t ConsumerOf(std::uint32_t producer, std::uint64_t draw) {
  return static_cast<std::uint32_t>(
      producer + kProducers * (draw % (kConsumers / kProducers)));
}

/// One producer's open-loop schedule: Poisson arrivals at `rate` for
/// `seconds`, uniform consumer (among its own) and query class.
std::vector<Request> Schedule(std::uint64_t seed, std::uint32_t producer,
                              double rate, double seconds) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const std::uint32_t classes = NumClasses();
  std::vector<Request> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform()) / rate;
    if (t >= seconds) break;
    Request request;
    request.due_s = t;
    request.consumer = ConsumerOf(producer, rng());
    request.class_index = static_cast<std::uint32_t>(rng() % classes);
    schedule.push_back(request);
  }
  return schedule;
}

/// The scenario every phase serves. The time scale puts the high rate at
/// kHighUtilization of the population's nominal provider capacity.
sqlb::Config ServingConfig(std::uint64_t seed, bool record_trace,
                           double time_scale_factor = 1.0) {
  sqlb::Config config;
  config.mode = sqlb::Mode::kServing;
  sqlb::runtime::SystemConfig& base = config.scenario();
  base.population.num_consumers = kConsumers;
  base.population.num_providers = kProviders;
  base.seed = DeriveSeed(seed, 0);
  base.record_series = false;
  const sqlb::Population population(base.population, base.seed);
  const double capacity_qps =
      sqlb::runtime::NominalMaxArrivalRate(base, population);
  config.serving.shards = kShards;
  config.serving.mediator_threads = kGroups;
  config.serving.time_scale = time_scale_factor * kHighQps /
                              (kHighUtilization * capacity_qps);
  config.serving.record_trace = record_trace;
  return config;
}

/// A started service with its producers, and the set-up time it took.
struct Started {
  std::unique_ptr<sqlb::Service> service;
  std::vector<sqlb::runtime::ServingProducer*> producers;
  double setup_s = 0.0;
  /// Read just before Start(): the tier's sim clock counts from here.
  Clock::time_point t0;
};

Started StartService(const sqlb::Config& config,
                     sqlb::Service::MethodFactory factory, Tracer* tracer,
                     std::uint64_t parent) {
  Started s;
  const double create_s = TimedCall(tracer, "sqlb.Create", parent, [&] {
    s.service = sqlb::Service::Create(config, std::move(factory));
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      s.producers.push_back(s.service->RegisterProducer());
    }
  });
  s.t0 = Clock::now();
  const double start_s =
      TimedCall(tracer, "sqlb.Start", parent, [&] { s.service->Start(); });
  s.setup_s = create_s + start_s;
  return s;
}

/// True when every producer's accepted submissions have been mediated.
bool AllMediated(const Started& s) {
  for (const sqlb::runtime::ServingProducer* producer : s.producers) {
    if (producer->mediated() != producer->submitted()) return false;
  }
  return true;
}

/// What one open-loop phase produced.
struct RatePhase {
  sqlb::runtime::ServingReport report;
  std::uint64_t presented = 0;
  std::uint64_t accepted = 0;
  /// Due -> mediation, microseconds, per accepted request, by window.
  std::vector<std::vector<double>> latency_us =
      std::vector<std::vector<double>>(kWindows);
  /// Due -> submit call, microseconds, one per presented request.
  std::vector<double> late_us;
  /// Submit call durations, nanoseconds (traced runs only).
  std::vector<double> submit_ns;
  double stop_s = 0.0;
  double replay_s = 0.0;
};

/// Runs one open-loop phase at `rate`; with `replay`, also replays the
/// recorded trace through the DES oracle and checks it.
RatePhase RunRatePhase(const char* name, double rate, double seconds,
                       std::uint64_t seed, bool replay, Tracer* tracer,
                       Result* result) {
  const std::string tag = std::string("serve-rate ") + name + ": ";
  std::vector<std::vector<Request>> schedules;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    schedules.push_back(Schedule(DeriveSeed(seed, 10 + p), p,
                                 rate / kProducers, seconds));
  }

  std::uint64_t phase_id = 0;
  std::int64_t phase_start = 0;
  std::vector<SpanLane*> lanes(kProducers, nullptr);
  if (tracer != nullptr) {
    phase_id = tracer->main()->ReserveId();
    phase_start = tracer->NowNs();
    for (SpanLane*& lane : lanes) lane = tracer->NewLane();
  }
  const sqlb::Config config = ServingConfig(seed, /*record_trace=*/true);
  Started s = StartService(config, SqlbFactory(), tracer, phase_id);

  RatePhase out;
  std::vector<std::vector<char>> accepted(kProducers);
  std::vector<std::vector<double>> late(kProducers);
  std::vector<std::vector<double>> submit_ns(kProducers);
  // A common schedule origin a little ahead, so both producers start on
  // time.
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const std::vector<Request>& schedule = schedules[p];
      accepted[p].resize(schedule.size());
      late[p].resize(schedule.size());
      if (tracer != nullptr) submit_ns[p].resize(schedule.size());
      sqlb::runtime::ServingProducer* producer = s.producers[p];
      // Sleep while well ahead of the schedule and spin the last stretch;
      // a tight timer slack keeps the sleeps close to what was asked.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule[i].due_s));
        Clock::time_point now = Clock::now();
        while (now < due) {
          if (due - now > std::chrono::microseconds(100)) {
            std::this_thread::sleep_for(due - now -
                                        std::chrono::microseconds(60));
          }
          now = Clock::now();
        }
        late[p][i] = std::chrono::duration<double, std::micro>(now - due)
                         .count();
        if (tracer == nullptr) {
          accepted[p][i] = s.service->Submit(producer, schedule[i].consumer,
                                             schedule[i].class_index);
          continue;
        }
        const std::int64_t start = tracer->NowNs();
        accepted[p][i] = s.service->Submit(producer, schedule[i].consumer,
                                           schedule[i].class_index);
        const std::int64_t end = tracer->NowNs();
        submit_ns[p][i] = static_cast<double>(end - start);
        const std::uint64_t request = i * kProducers + p;
        if (request % kSubmitSpanEvery == 0) {
          lanes[p]->Record("sqlb.Submit", phase_id,
                           static_cast<std::int64_t>(request), start, end);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TimedCall(tracer, "sqlb.Drain", phase_id, [&] { s.service->Drain(); });
  result->Check(AllMediated(s), tag + "Drain returned before every "
                                      "accepted request was mediated");
  out.stop_s = TimedCall(tracer, "sqlb.Stop", phase_id,
                         [&] { out.report = s.service->Stop(); });

  // Tally what was presented and pair each accepted request with its
  // recorded mediation, shard by shard.
  std::vector<std::vector<const Request*>> by_shard(kShards);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < schedules[p].size(); ++i) {
      ++out.presented;
      out.late_us.push_back(late[p][i]);
      if (tracer != nullptr) out.submit_ns.push_back(submit_ns[p][i]);
      if (!accepted[p][i]) continue;
      ++out.accepted;
      by_shard[schedules[p][i].consumer % kShards].push_back(
          &schedules[p][i]);
    }
  }
  const double origin_s = SecondsBetween(s.t0, origin);
  const double time_scale = config.serving.time_scale;
  const sqlb::runtime::ServingTrace& trace = s.service->trace();
  std::vector<std::size_t> cursor(kShards, 0);
  bool paired = true;
  for (const sqlb::runtime::ServingBurst& burst : trace.bursts) {
    const double mediated_s = burst.flush_time / time_scale;
    for (std::size_t q = burst.first; q < burst.first + burst.count; ++q) {
      const sqlb::Query& query = trace.queries[q];
      std::size_t& k = cursor[burst.shard];
      if (k >= by_shard[burst.shard].size()) {
        paired = false;
        break;
      }
      const Request& request = *by_shard[burst.shard][k++];
      paired = paired && query.consumer.index() == request.consumer &&
               query.class_index == request.class_index;
      const std::size_t window = std::min(
          kWindows - 1,
          static_cast<std::size_t>(request.due_s / seconds * kWindows));
      out.latency_us[window].push_back(
          1e6 * (mediated_s - origin_s - request.due_s));
    }
  }
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    paired = paired && cursor[shard] == by_shard[shard].size();
  }

  const sqlb::runtime::ServingReport& report = out.report;
  const sqlb::runtime::RunResult& run = report.run;
  result->Check(out.presented == report.submitted + report.shed,
                tag + "presented != submitted + shed");
  result->Check(out.accepted == report.submitted,
                tag + "accepted submissions disagree with the report");
  result->Check(report.served == report.submitted,
                tag + "served != submitted after Stop");
  result->Check(run.queries_issued == report.served &&
                    run.queries_completed + run.queries_infeasible +
                            run.queries_reissued ==
                        run.queries_issued,
                tag + "conservation broken in the serving run");
  result->Check(paired, tag +
                            "recorded queries do not match the accepted "
                            "requests shard by shard");

  if (replay) {
    sqlb::runtime::ServingReplayResult oracle;
    out.replay_s = TimedCall(tracer, "sqlb.Replay", phase_id,
                             [&] { oracle = s.service->Replay(); });
    std::string diff;
    result->Check(oracle.decisions.IdenticalTo(trace.decisions, &diff),
                  tag + "replay oracle diverged: " + diff);
    result->Check(oracle.run.queries_issued == run.queries_issued &&
                      oracle.run.queries_completed +
                              oracle.run.queries_infeasible ==
                          oracle.run.queries_issued,
                  tag + "replay conservation broken");
  }
  if (tracer != nullptr) {
    tracer->main()->Record(name, 0, -1, phase_start, tracer->NowNs(),
                           phase_id);
  }
  return out;
}

/// What one flood produced.
struct Flood {
  double qps = 0.0;
  double wall_s = 0.0;
  double drain_s = 0.0;
  double stop_s = 0.0;
  std::uint64_t served = 0;
  ScoreTally score;
  double score_imbalance = 0.0;
};

/// Producers submit flat out for `seconds`, retrying on shed. Throughput
/// counts from the first submit to Drain()'s return.
Flood RunFlood(double seconds, std::uint64_t seed, Tracer* tracer,
               Result* result) {
  std::uint64_t flood_id = 0;
  std::int64_t flood_start = 0;
  ScoringProbes probes(kShards, tracer);
  sqlb::Service::MethodFactory factory = SqlbFactory();
  if (tracer != nullptr) {
    flood_id = tracer->main()->ReserveId();
    flood_start = tracer->NowNs();
    factory = probes.Factory(flood_id);
  }
  const sqlb::Config config =
      ServingConfig(seed, /*record_trace=*/false, kFloodTimeScale);
  Started s = StartService(config, std::move(factory), tracer, flood_id);

  // Each producer cycles a seeded draw of its own consumers and classes.
  const std::uint32_t classes = NumClasses();
  std::vector<std::vector<sqlb::runtime::ServingRequest>> draws(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    std::mt19937_64 rng(DeriveSeed(seed, 20 + p));
    draws[p].resize(4096);
    for (auto& r : draws[p]) {
      r.consumer = ConsumerOf(p, rng());
      r.class_index = static_cast<std::uint32_t>(rng() % classes);
    }
  }
  std::vector<std::uint64_t> presented(kProducers, 0);
  std::atomic<bool> go{false};
  Clock::time_point first_submit;
  const Clock::duration budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const Clock::time_point deadline = first_submit + budget;
      sqlb::runtime::ServingProducer* producer = s.producers[p];
      const std::vector<sqlb::runtime::ServingRequest>& draw = draws[p];
      std::uint64_t attempts = 0;
      for (std::size_t i = 0;; ++i) {
        if (i % 64 == 0 && Clock::now() >= deadline) break;
        const sqlb::runtime::ServingRequest& r = draw[i % draw.size()];
        for (;;) {
          ++attempts;
          if (s.service->Submit(producer, r.consumer, r.class_index)) break;
          std::this_thread::yield();
        }
      }
      presented[p] = attempts;
    });
  }
  first_submit = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  Flood out;
  out.drain_s =
      TimedCall(tracer, "sqlb.Drain", flood_id, [&] { s.service->Drain(); });
  out.wall_s = SecondsBetween(first_submit, Clock::now());
  result->Check(AllMediated(s), "serve-rate flood: Drain returned before "
                                "every accepted request was mediated");
  sqlb::runtime::ServingReport report;
  out.stop_s = TimedCall(tracer, "sqlb.Stop", flood_id,
                         [&] { report = s.service->Stop(); });
  out.served = report.served;
  out.qps = static_cast<double>(report.served) / out.wall_s;
  std::uint64_t total_presented = 0;
  for (std::uint64_t n : presented) total_presented += n;
  result->Check(total_presented == report.submitted + report.shed,
                "serve-rate flood: presented != submitted + shed");
  result->Check(report.served == report.submitted,
                "serve-rate flood: served != submitted after Stop");
  result->Check(report.run.queries_completed + report.run.queries_infeasible +
                        report.run.queries_reissued ==
                    report.run.queries_issued,
                "serve-rate flood: conservation broken");
  if (tracer != nullptr) {
    out.score = probes.Total();
    out.score_imbalance = probes.Imbalance();
    tracer->main()->Record("flood", 0, -1, flood_start, tracer->NowNs(),
                           flood_id);
  }
  return out;
}

/// Times `count` set-up rounds (Create, RegisterProducer, Start; then Stop)
/// into `setups`, after `warmups` untimed ones.
void SampleSetups(std::uint64_t seed, std::size_t warmups, std::size_t count,
                  std::vector<double>* setups) {
  for (std::size_t i = 0; i < warmups + count; ++i) {
    Started s = StartService(ServingConfig(seed, /*record_trace=*/false),
                             SqlbFactory(), nullptr, 0);
    s.service->Stop();
    if (i >= warmups) setups->push_back(s.setup_s);
  }
}

/// Median over the phase's windows of the q-quantile of due -> mediation.
double WindowedQuantile(const RatePhase& phase, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : phase.latency_us) {
    per_window.push_back(Quantile(window, q));
  }
  return Median(per_window);
}

}  // namespace

void RunServeRate(const Options& options, Tracer* tracer, Result* result) {
  const std::uint64_t seed = options.seed;

  RatePhase low = RunRatePhase("low", kLowQps, kLowShare * options.seconds,
                               DeriveSeed(seed, 1), /*replay=*/true, tracer,
                               result);
  RatePhase high =
      RunRatePhase("high", kHighQps, kHighShare * options.seconds,
                   DeriveSeed(seed, 2), /*replay=*/false, tracer, result);

  // Floods; the traced run alternates an untraced and a traced one.
  std::vector<Flood> plain, traced;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kFloods; ++i) {
    const double seconds = kFloodShare * options.seconds;
    plain.push_back(RunFlood(seconds, DeriveSeed(seed, 3), nullptr, result));
    if (tracer != nullptr) {
      traced.push_back(RunFlood(seconds, DeriveSeed(seed, 3), tracer, result));
    } else {
      SampleSetups(DeriveSeed(seed, 4), i == 0 ? kSetupWarmups : 0,
                   kSetupsPerFlood, &setups);
    }
  }

  result->attempted = low.presented + high.presented;
  result->failed = low.report.shed + high.report.shed;
  for (const Flood& flood : plain) result->attempted += flood.served;

  std::vector<double> plain_qps, traced_qps;
  for (const Flood& flood : plain) plain_qps.push_back(flood.qps);
  for (const Flood& flood : traced) traced_qps.push_back(flood.qps);

  // Latency, response time and failure figures: informational lines in
  // the untraced run, per-layer metrics in the traced one.
  const double presented = static_cast<double>(low.presented + high.presented);
  const double shed = static_cast<double>(low.report.shed + high.report.shed);
  result->Set("latency_p50_us.low", WindowedQuantile(low, 0.50));
  result->Set("latency_p99_us.low", WindowedQuantile(low, 0.99));
  result->Set("latency_p50_us.high", WindowedQuantile(high, 0.50));
  result->Set("latency_p99_us.high", WindowedQuantile(high, 0.99));
  result->Set("rt_mean_sim_s", high.report.run.response_time.mean());
  result->Set("rt_p99_sim_s", high.report.run.ResponseTimeQuantile(0.99));
  result->Set("failed_frac", Ratio(shed, presented));
  result->Set("gen.late_p99_us", std::max(Quantile(low.late_us, 0.99),
                                          Quantile(high.late_us, 0.99)));

  if (tracer == nullptr) {
    result->Set("setup_s", Median(setups));
    result->Set("throughput_qps", Median(plain_qps));
    result->Set("completed_frac",
                Ratio(static_cast<double>(low.report.served +
                                          high.report.served),
                      presented));
    result->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  std::vector<double> drains, stops{low.stop_s, high.stop_s};
  std::vector<double> score_ns, score_share, candidates, per_call, other_ns,
      imbalance;
  for (const Flood& flood : traced) {
    drains.push_back(flood.drain_s);
    stops.push_back(flood.stop_s);
    const double queries = static_cast<double>(flood.score.queries);
    const double score = static_cast<double>(flood.score.ns);
    const double busy_ns = static_cast<double>(kGroups) * flood.wall_s * 1e9;
    score_ns.push_back(Ratio(score, queries));
    score_share.push_back(Ratio(score, busy_ns));
    candidates.push_back(
        Ratio(static_cast<double>(flood.score.candidates), queries));
    per_call.push_back(
        Ratio(queries, static_cast<double>(flood.score.calls)));
    other_ns.push_back(
        Ratio(busy_ns - score, static_cast<double>(flood.served)));
    imbalance.push_back(flood.score_imbalance);
  }
  result->Set("sqlb.drain_s", Median(drains));
  result->Set("sqlb.stop_s", Median(stops));
  result->Set("sqlb.replay_s", low.replay_s);
  std::vector<double> submits = low.submit_ns;
  submits.insert(submits.end(), high.submit_ns.begin(), high.submit_ns.end());
  result->Set("intake.submit_ns_p50", Quantile(submits, 0.50));
  result->Set("intake.submit_ns_p99", Quantile(submits, 0.99));
  result->Set("intake.shed", shed);
  result->Set("serving.parks_per_query",
              Ratio(static_cast<double>(low.report.idle_parks),
                    static_cast<double>(low.report.served)));
  result->Set("serving.spurious_wakes",
              static_cast<double>(low.report.spurious_wakes));
  const double per_burst =
      Ratio(static_cast<double>(high.report.served),
            static_cast<double>(high.report.bursts));
  result->Set("serving.queries_per_burst", per_burst);
  result->Set("serving.enqueue_to_mediation_p50_us.low",
              1e6 * low.report.intake_wall.Quantile(0.50));
  result->Set("serving.enqueue_to_mediation_p99_us.low",
              1e6 * low.report.intake_wall.Quantile(0.99));
  result->Set("serving.enqueue_to_mediation_p50_us.high",
              1e6 * high.report.intake_wall.Quantile(0.50));
  result->Set("serving.enqueue_to_mediation_p99_us.high",
              1e6 * high.report.intake_wall.Quantile(0.99));
  result->Set("core.score_ns_per_query", Median(score_ns));
  result->Set("core.score_share", Median(score_share));
  result->Set("core.candidates_per_query", Median(candidates));
  result->Set("core.queries_per_call", Median(per_call));
  result->Set("mediation.other_ns_per_query", Median(other_ns));
  result->Set("batch.queries_per_flush", per_burst);
  result->Set("batch.wait_p99_sim_s",
              high.report.run.metrics.HistogramQuantile(
                  sqlb::obs::kMetricBatchWait, 0.99));
  result->Set("shard.score_imbalance", Median(imbalance));
  result->Set("trace.overhead_frac",
              1.0 - Ratio(Median(traced_qps), Median(plain_qps)));
}

}  // namespace perfbench
