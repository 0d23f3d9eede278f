#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Shared plumbing of the benchmark binary: command-line options, the
/// result object every workload fills (metrics by name and unit, attempted
/// and failed operation counts, output checks), exact order statistics over
/// raw samples, and the process's peak resident set.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds the run measures for (--seconds).
  double seconds = 10.0;
  /// 0 = the untraced end-to-end run, 1 = the traced per-layer run.
  bool trace = false;
  /// Where the traced run writes its spans (--trace-out); empty = nowhere.
  std::string trace_out;
};

/// Independent stream `stream` of the workload seed (SplitMix64 finalizer),
/// so the scenario populations and the generator never share draws.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Exact q-quantile of `samples` (linear interpolation between closest
/// ranks, as numpy's default); 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();

/// One reported metric's name and unit, as BENCHMARK.json lists it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics a run prints in its result: the end-to-end set untraced, the
/// per-layer set traced. Every workload prints the whole set; a layer the
/// workload does not exercise reads 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run prints: metrics in declaration order, plus the operation
/// tally and every output check that failed.
class Result {
 public:
  /// Declares `specs` at 0, in order: the metrics of the result line.
  explicit Result(const std::vector<MetricSpec>& specs);

  /// Fills a declared metric. A metric of the other list is kept as an
  /// informational line instead (InfoLines); any other name fails a check.
  void Set(const std::string& name, double value);
  /// "# also measured: <name> = <value> <unit>" lines, one per metric set
  /// that is not part of the result line.
  std::string InfoLines() const;
  /// Records a failed output check when `ok` is false.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// The one-line JSON object: correct, attempted, failed, metrics.
  std::string ToJson() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
