#include "runtime/agent_store.h"

#include "common/status.h"

namespace sqlb::runtime {

void AgentStore::Resize(std::size_t count) {
  backlog_units_.assign(count, 0.0);
  total_allocated_units_.assign(count, 0.0);
  util_sum_.assign(count, 0.0);
  // WindowedSum's "no event yet" sentinel: the first Add always satisfies
  // the non-decreasing-time check.
  util_last_time_.assign(count, -kSimTimeInfinity);
  load_revision_.assign(count, 0);
  char_revision_.assign(count, 0);
  util_revision_.assign(count, 0);
  flags_.assign(count, kActive);
  core_slot_.assign(count, kNoCoreSlot);
}

void AgentStore::ConfigureArenas(std::size_t lanes) {
  SQLB_CHECK(arena_bytes_reserved() == 0,
             "reconfiguring arenas after agents allocated arena chunks");
  arenas_.clear();
  arenas_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    arenas_.push_back(std::make_unique<mem::AgentArena>());
  }
}

mem::AgentArena* AgentStore::arena(std::size_t lane) {
  SQLB_CHECK(lane < arenas_.size(), "arena lane out of range");
  return arenas_[lane].get();
}

std::size_t AgentStore::columns_bytes() const {
  const std::size_t n = count();
  return n * (4 * sizeof(double) + 3 * sizeof(std::uint64_t) +
              sizeof(std::uint8_t) + sizeof(std::uint32_t));
}

std::size_t AgentStore::arena_bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& arena : arenas_) total += arena->bytes_reserved();
  return total;
}

std::size_t AgentStore::arena_blocks_live() const {
  std::size_t total = 0;
  for (const auto& arena : arenas_) total += arena->slabs()->blocks_live();
  return total;
}

}  // namespace sqlb::runtime
