#include "runtime/provider_agent.h"

#include "common/status.h"
#include "methods/mariposa.h"

namespace sqlb::runtime {

ProviderAgent::ProviderAgent(const ProviderProfile& profile,
                             const ProviderAgentConfig& config)
    : ProviderAgent(profile, std::make_unique<SelfStore>(config)) {}

ProviderAgent::ProviderAgent(const ProviderProfile& profile,
                             std::unique_ptr<SelfStore> self)
    : profile_(profile),
      self_(std::move(self)),
      config_(&self_->config),
      store_(&self_->store),
      slot_(0),
      window_(config_->window) {
  SQLB_CHECK(profile.capacity > 0.0, "provider capacity must be positive");
}

ProviderAgent::ProviderAgent(const ProviderProfile& profile,
                             const ProviderAgentConfig* config,
                             AgentStore* store, std::uint32_t slot)
    : profile_(profile),
      config_(config),
      store_(store),
      slot_(slot),
      window_(config->window) {
  SQLB_CHECK(profile.capacity > 0.0, "provider capacity must be positive");
  SQLB_CHECK(slot_ < store_->count(), "agent slot out of range");
}

void ProviderAgent::SetArena(mem::AgentArena* arena) {
  slabs_ = arena != nullptr ? arena->slabs() : nullptr;
  window_.set_chunk_pool(slabs_);
}

double ProviderAgent::ComputeIntention(double preference, SimTime now) {
  return ProviderIntention(preference, Utilization(now),
                           SatisfactionOnPreferences(), config_->intention);
}

double ProviderAgent::ComputeBidPrice(double preference) const {
  return MariposaAskingPrice(preference, config_->bid_price_floor);
}

double ProviderAgent::EstimateDelay(double units) const {
  return BacklogSeconds() + units / profile_.capacity;
}

void ProviderAgent::UtilAdd(SimTime t, double value) {
  SQLB_CHECK(t >= store_->util_last_time(slot_),
             "windowed sum times must be non-decreasing");
  store_->util_last_time(slot_) = t;
  SQLB_CHECK(util_events_.push_back(UtilEvent{t, value}, slabs_),
             "agent arena allocation failed");
  store_->util_sum(slot_) += value;
  ++store_->util_revision(slot_);
}

double ProviderAgent::UtilSumAt(SimTime t) {
  const SimTime width = config_->utilization_window;
  bool evicted = false;
  while (!util_events_.empty() && util_events_.front().time <= t - width) {
    store_->util_sum(slot_) -= util_events_.front().value;
    util_events_.pop_front();
    evicted = true;
  }
  if (util_events_.empty()) store_->util_sum(slot_) = 0.0;
  if (evicted) ++store_->util_revision(slot_);
  return store_->util_sum(slot_);
}

double ProviderAgent::Utilization(SimTime now) {
  // Any eviction this read performs invalidates cached characterizations —
  // fold it into the coarse stamp so the cache sees reads-with-evictions
  // from every path (probes, gossip, departure checks), not just events.
  const std::uint64_t before = store_->util_revision(slot_);
  const double sum = UtilSumAt(now);
  if (store_->util_revision(slot_) != before) ++store_->char_revision(slot_);
  return sum / (profile_.capacity * config_->utilization_window);
}

double ProviderAgent::CommittedUtilization(SimTime now) {
  return Utilization(now) +
         store_->backlog_units(slot_) /
             (profile_.capacity * config_->utilization_window);
}

void ProviderAgent::Enqueue(des::Simulator& sim, const Query& query,
                            CompletionFn on_completion) {
  SQLB_CHECK(query.units > 0.0, "query treatment cost must be positive");
  UtilAdd(sim.Now(), query.units);
  store_->total_allocated_units(slot_) += query.units;
  store_->backlog_units(slot_) += query.units;
  ++store_->load_revision(slot_);
  ++store_->char_revision(slot_);
  SQLB_CHECK(
      queue_.push_back(PendingQuery{query, std::move(on_completion)}, slabs_),
      "agent arena allocation failed");
  if (!store_->in_service(slot_)) StartNextService(sim);
}

void ProviderAgent::StartNextService(des::Simulator& sim) {
  SQLB_CHECK(!queue_.empty(), "no query to serve");
  store_->set_in_service(slot_, true);
  const double service_seconds = queue_.front().query.units / profile_.capacity;
  sim.ScheduleAfter(service_seconds, [this](des::Simulator& s) {
    PendingQuery done = std::move(queue_.front());
    queue_.pop_front();
    store_->backlog_units(slot_) -= done.query.units;
    if (store_->backlog_units(slot_) < 1e-9) {
      store_->backlog_units(slot_) = 0.0;
    }
    ++store_->load_revision(slot_);
    ++store_->char_revision(slot_);
    store_->set_in_service(slot_, false);
    if (!queue_.empty()) StartNextService(s);
    if (done.on_completion) {
      done.on_completion(done.query, profile_.id, s.Now());
    }
  });
}

std::size_t ProviderAgent::ResidentBytes() const {
  return sizeof(ProviderAgent) + window_.resident_bytes() +
         util_events_.resident_bytes() + queue_.resident_bytes();
}

}  // namespace sqlb::runtime
