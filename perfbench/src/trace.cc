#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/sqlb_method.h"

namespace perfbench {

std::uint64_t SpanLane::ReserveId() {
  return (static_cast<std::uint64_t>(index_) + 1) << 40 | next_++;
}

std::uint64_t SpanLane::Record(const char* name, std::uint64_t parent,
                               std::int64_t request, std::int64_t start_ns,
                               std::int64_t end_ns, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id != 0 ? id : ReserveId();
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

Tracer::Tracer() : epoch_(Clock::now()) { NewLane(); }

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanLane* Tracer::NewLane() {
  lanes_.push_back(
      std::make_unique<SpanLane>(static_cast<std::uint32_t>(lanes_.size())));
  return lanes_.back().get();
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans().size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "lane\tid\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (const Span& s : lanes_[l]->spans()) {
      std::fprintf(out, "%zu\t%llu\t%llu\t%lld\t%s\t%lld\t%lld\n", l,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

namespace {

/// Forwards every AllocationMethod entry point to SqlbMethod unchanged and
/// times the outermost call: the scoring layer's busy time, query and
/// candidate counts, one span per call. Decisions, the method name and the
/// gathered columns are the wrapped method's, so a run through the
/// decorator decides exactly like one without it.
class TimedMethod final : public sqlb::AllocationMethod {
 public:
  TimedMethod(ScoreTally* tally, SpanLane* lane, Tracer* tracer,
              std::uint64_t parent)
      : tally_(tally), lane_(lane), tracer_(tracer), parent_(parent) {}

  std::string name() const override { return inner_.name(); }

  sqlb::AllocationDecision Allocate(
      const sqlb::AllocationRequest& request) override {
    sqlb::AllocationDecision decision;
    Timed(1, request.candidates.size(),
          [&] { decision = inner_.Allocate(request); });
    return decision;
  }

  void AllocateBatch(const sqlb::AllocationRequest* requests,
                     std::size_t count,
                     sqlb::AllocationDecision* decisions) override {
    std::size_t candidates = 0;
    for (std::size_t i = 0; i < count; ++i) {
      candidates += requests[i].candidates.size();
    }
    Timed(count, candidates,
          [&] { inner_.AllocateBatch(requests, count, decisions); });
  }

  sqlb::AllocationDecision AllocateColumns(
      const sqlb::ColumnarRequest& request) override {
    sqlb::AllocationDecision decision;
    Timed(1, request.candidates->size(),
          [&] { decision = inner_.AllocateColumns(request); });
    return decision;
  }

  void AllocateBatchColumns(const sqlb::ColumnarRequest* requests,
                            std::size_t count,
                            sqlb::AllocationDecision* decisions) override {
    std::size_t candidates = 0;
    for (std::size_t i = 0; i < count; ++i) {
      candidates += requests[i].candidates->size();
    }
    Timed(count, candidates,
          [&] { inner_.AllocateBatchColumns(requests, count, decisions); });
  }

  sqlb::CandidateColumnNeeds RequiredColumns() const override {
    return inner_.RequiredColumns();
  }

 private:
  template <typename Fn>
  void Timed(std::size_t queries, std::size_t candidates, Fn&& fn) {
    const Clock::time_point begin = Clock::now();
    fn();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             begin)
            .count();
    tally_->ns += static_cast<std::uint64_t>(ns);
    ++tally_->calls;
    tally_->queries += queries;
    tally_->candidates += candidates;
    if (lane_ != nullptr) {
      const std::int64_t end_ns = tracer_->NowNs();
      lane_->Record("score", parent_, -1, end_ns - ns, end_ns);
    }
  }

  sqlb::SqlbMethod inner_;
  ScoreTally* tally_;
  SpanLane* lane_;
  Tracer* tracer_;
  std::uint64_t parent_;
};

}  // namespace

sqlb::Service::MethodFactory SqlbFactory() {
  return [](std::uint32_t) { return std::make_unique<sqlb::SqlbMethod>(); };
}

ScoringProbes::ScoringProbes(std::size_t shards, Tracer* tracer)
    : tallies_(shards), lanes_(shards, nullptr), tracer_(tracer) {
  if (tracer_ != nullptr) {
    for (SpanLane*& lane : lanes_) lane = tracer_->NewLane();
  }
}

sqlb::Service::MethodFactory ScoringProbes::Factory(std::uint64_t parent) {
  return [this, parent](std::uint32_t shard)
             -> std::unique_ptr<sqlb::AllocationMethod> {
    return std::make_unique<TimedMethod>(&tallies_.at(shard),
                                         lanes_.at(shard), tracer_, parent);
  };
}

ScoreTally ScoringProbes::Total() const {
  ScoreTally total;
  for (const ScoreTally& t : tallies_) {
    total.ns += t.ns;
    total.calls += t.calls;
    total.queries += t.queries;
    total.candidates += t.candidates;
  }
  return total;
}

double ScoringProbes::Imbalance() const {
  const ScoreTally total = Total();
  if (total.ns == 0) return 0.0;
  std::uint64_t max_ns = 0;
  for (const ScoreTally& t : tallies_) max_ns = std::max(max_ns, t.ns);
  const double mean =
      static_cast<double>(total.ns) / static_cast<double>(tallies_.size());
  return static_cast<double>(max_ns) / mean;
}

}  // namespace perfbench
