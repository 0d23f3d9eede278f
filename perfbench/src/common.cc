#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_qps", "queries/s"},
      {"completed_frac", "fraction"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"latency_p50_us.low", "us"},
      {"latency_p99_us.low", "us"},
      {"latency_p50_us.high", "us"},
      {"latency_p99_us.high", "us"},
      {"rt_mean_sim_s", "sim-s"},
      {"rt_p99_sim_s", "sim-s"},
      {"consumer_allocsat", "ratio"},
      {"failed_frac", "fraction"},
      {"reissued_frac", "fraction"},
      {"sqlb.drain_s", "s"},
      {"sqlb.stop_s", "s"},
      {"sqlb.replay_s", "s"},
      {"intake.submit_ns_p50", "ns"},
      {"intake.submit_ns_p99", "ns"},
      {"intake.shed", "count"},
      {"serving.parks_per_query", "ratio"},
      {"serving.spurious_wakes", "count"},
      {"serving.queries_per_burst", "count"},
      {"serving.enqueue_to_mediation_p50_us.low", "us"},
      {"serving.enqueue_to_mediation_p99_us.low", "us"},
      {"serving.enqueue_to_mediation_p50_us.high", "us"},
      {"serving.enqueue_to_mediation_p99_us.high", "us"},
      {"core.score_ns_per_query", "ns"},
      {"core.score_share", "fraction"},
      {"core.candidates_per_query", "count"},
      {"core.queries_per_call", "count"},
      {"mediation.other_ns_per_query", "ns"},
      {"batch.queries_per_flush", "count"},
      {"batch.wait_p99_sim_s", "sim-s"},
      {"shard.score_imbalance", "ratio"},
      {"shard.completed_imbalance", "ratio"},
      {"shard.gossip_messages", "count"},
      {"shard.handoffs", "count"},
      {"shard.rebalances", "count"},
      {"failover.crashes", "count"},
      {"failover.snapshots", "count"},
      {"failover.reissued", "count"},
      {"failover.restored_providers", "count"},
      {"failover.dropped_completions", "count"},
      {"failover.reissue_delay_p99_sim_s", "sim-s"},
      {"mem.bytes_per_provider", "B"},
      {"mem.arena_mb", "MiB"},
      {"gen.late_p99_us", "us"},
      {"trace.overhead_frac", "fraction"},
  };
  return specs;
}

namespace {

const MetricSpec* FindSpec(const std::vector<MetricSpec>& specs,
                           const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string FormatValue(double value) {
  // %.17g keeps every digit a double carries; non-finite values are not
  // JSON, so they print as null and fail validation.
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

Result::Result(const std::vector<MetricSpec>& specs) {
  for (const MetricSpec& spec : specs) {
    metrics_.push_back({spec.name, 0.0, spec.unit});
  }
}

void Result::Set(const std::string& name, double value) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  // A metric of the other list: reported beside the result, not in it.
  const MetricSpec* spec = FindSpec(EndToEndMetrics(), name);
  if (spec == nullptr) spec = FindSpec(PerLayerMetrics(), name);
  if (spec != nullptr) {
    info_.push_back({name, value, spec->unit});
    return;
  }
  Check(false, "metric " + name + " is not declared");
}

std::string Result::InfoLines() const {
  std::string out;
  for (const Metric& metric : info_) {
    out += "# also measured: " + metric.name + " = " +
           FormatValue(metric.value) + " " + metric.unit + "\n";
  }
  return out;
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " + FormatValue(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
