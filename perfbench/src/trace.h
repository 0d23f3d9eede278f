#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sqlb/service.h"

/// \file
/// The traced run's instrumentation, all of it in the benchmark's own
/// files: spans recorded around calls into the library's public functions
/// (the sqlb::Service facade, ServingMediator::Submit through it, and
/// AllocationMethod through a decorator handed in via
/// Service::MethodFactory). Nothing inside src/ is instrumented.
///
/// Spans live in per-lane in-memory logs — one lane per writing thread or
/// per shard, so recording takes no lock — and are written once, at exit.

namespace perfbench {

struct Span {
  const char* name = "";
  /// Lane-qualified id: (lane + 1) << 40 | per-lane sequence.
  std::uint64_t id = 0;
  /// The span that caused this one; 0 = a root.
  std::uint64_t parent = 0;
  /// The benchmark's request id where one is known; -1 otherwise.
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A single-writer span buffer.
class SpanLane {
 public:
  explicit SpanLane(std::uint32_t index) : index_(index) {}
  /// An id for a span recorded later (a parent whose children finish
  /// first).
  std::uint64_t ReserveId();
  /// Records one span under `id`, or under a fresh id when `id` is 0.
  std::uint64_t Record(const char* name, std::uint64_t parent,
                       std::int64_t request, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t id = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t index_ = 0;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Every span of one traced process, on a common steady-clock epoch.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t NowNs() const;
  /// Creates a new lane. Not thread-safe: create every lane on the main
  /// thread before handing it to its writer. The lane stays valid for the
  /// tracer's lifetime.
  SpanLane* NewLane();
  /// The main thread's lane (facade calls).
  SpanLane* main() { return lanes_.front().get(); }

  /// Writes every span as tab-separated lines (lane, id, parent, request,
  /// name, start_ns, end_ns). Returns false when the file cannot be written.
  bool Write(const std::string& path) const;
  std::size_t span_count() const;

 private:
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

/// Times `fn` and returns its wall seconds; with a tracer, also records it
/// as a span on the main lane (under `id` when non-zero).
template <typename Fn>
double TimedCall(Tracer* tracer, const char* name, std::uint64_t parent,
                 Fn&& fn, std::uint64_t id = 0) {
  const std::int64_t start = tracer != nullptr ? tracer->NowNs() : 0;
  const Clock::time_point begin = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->main()->Record(name, parent, -1, start, tracer->NowNs(), id);
  }
  return SecondsBetween(begin, end);
}

/// The plain method factory: a fresh SqlbMethod per shard.
sqlb::Service::MethodFactory SqlbFactory();

/// Per-shard scoring tally, written only by the thread mediating that shard.
struct ScoreTally {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t queries = 0;
  std::uint64_t candidates = 0;
};

/// Per-shard scoring tallies and span lanes for one Service. Owns the
/// storage the decorators write, so it must outlive the Service.
class ScoringProbes {
 public:
  /// `tracer` may be null (tallies only).
  ScoringProbes(std::size_t shards, Tracer* tracer);

  /// A MethodFactory building SqlbMethod wrapped in the timing decorator.
  /// `parent` is the span the scoring calls hang under.
  sqlb::Service::MethodFactory Factory(std::uint64_t parent);

  ScoreTally Total() const;
  /// max / mean per-shard scoring time (1 = even); 0 with no scoring.
  double Imbalance() const;

 private:
  std::vector<ScoreTally> tallies_;
  std::vector<SpanLane*> lanes_;
  Tracer* tracer_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
