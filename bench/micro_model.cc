// Microbenchmarks: the characterization-model primitives. Every proposed
// query touches one ProviderWindow per candidate (400 Record calls per
// query at paper scale), so these are the hottest non-allocation paths.
// The pow rows price the Definition 7-9 kernel (common/pow_kernel.h)
// against libm, and the SqlbScoreColumns rows the Definition 9 column pass
// built on it, at the serving (12), mid (81) and Table-2 (400) candidate
// counts.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/pow_kernel.h"
#include "common/rng.h"
#include "core/intention.h"
#include "core/scoring.h"
#include "model/metrics.h"
#include "model/windows.h"

namespace sqlb {
namespace {

void BM_ProviderWindowRecord(benchmark::State& state) {
  WindowConfig config;
  config.capacity = static_cast<std::size_t>(state.range(0));
  ProviderWindow window(config);
  Rng rng(3);
  for (auto _ : state) {
    window.Record(rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0),
                  rng.Bernoulli(0.01));
    benchmark::DoNotOptimize(
        window.Satisfaction(ProviderWindow::Channel::kIntention));
  }
}
BENCHMARK(BM_ProviderWindowRecord)->Arg(500)->Arg(2000);

void BM_ConsumerWindowRecord(benchmark::State& state) {
  WindowConfig config;
  config.capacity = 200;
  ConsumerWindow window(config);
  Rng rng(5);
  for (auto _ : state) {
    window.Record(rng.NextDouble(), rng.NextDouble());
    benchmark::DoNotOptimize(window.AllocationSatisfactionValue());
  }
}
BENCHMARK(BM_ConsumerWindowRecord);

void BM_ProviderIntention(benchmark::State& state) {
  ProviderIntentionParams params;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ProviderIntention(rng.Uniform(-1.0, 1.0), rng.Uniform(0.0, 2.0),
                          rng.NextDouble(), params));
  }
}
BENCHMARK(BM_ProviderIntention);

void BM_ProviderScore(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ProviderScore(rng.Uniform(-2.0, 1.0), rng.Uniform(-1.0, 1.0),
                      rng.NextDouble()));
  }
}
BENCHMARK(BM_ProviderScore);

// One column of 1024 (x, y) pairs with x log-uniform over [1e-3, 3] and
// y uniform over [0, 1] — the range the intention and score bases span.
struct PowInputs {
  std::vector<double> x;
  std::vector<double> y;
  PowInputs() {
    Rng rng(13);
    for (int i = 0; i < 1024; ++i) {
      x.push_back(std::exp(rng.Uniform(std::log(1e-3), std::log(3.0))));
      y.push_back(rng.NextDouble());
    }
  }
};

void BM_PowKernel(benchmark::State& state) {
  const PowInputs in;
  std::vector<double> out(in.x.size());
  for (auto _ : state) {
    PowColumn(in.x.data(), in.y.data(), in.x.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.x.size()));
}
BENCHMARK(BM_PowKernel);

void BM_StdPow(benchmark::State& state) {
  const PowInputs in;
  std::vector<double> out(in.x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.x.size(); ++i) {
      out[i] = std::pow(in.x[i], in.y[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.x.size()));
}
BENCHMARK(BM_StdPow);

void BM_SqlbScoreColumns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(15);
  std::vector<double> pi(n), ci(n), psat(n);
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = rng.Uniform(-2.0, 1.0);
    ci[i] = rng.Uniform(-1.0, 1.0);
    psat[i] = rng.NextDouble();
  }
  std::vector<double> scores;
  for (auto _ : state) {
    SqlbScoreColumns(pi.data(), ci.data(), psat.data(), n, 0.6, 1.0, nullptr,
                     &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SqlbScoreColumns)->Arg(12)->Arg(81)->Arg(400);

void BM_MetricsSummarize(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < state.range(0); ++i) {
    values.push_back(rng.NextDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Summarize(values));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetricsSummarize)->Arg(400)->Arg(4000);

}  // namespace
}  // namespace sqlb

#include "micro_main.h"
SQLB_MICRO_BENCH_MAIN("micro_model")
