#ifndef SQLB_MEM_AGENT_ARENA_H_
#define SQLB_MEM_AGENT_ARENA_H_

#include <cstddef>

#include "mem/page_pool.h"

/// \file
/// Per-lane arena for agent state. Each mediation lane (shard) owns one
/// arena; agents homed on that shard draw their queue/window chunks from
/// it, so a lane's agent state lives in pages its own worker thread
/// first-touched (the NUMA placement policy — see mem/page_pool.h).

namespace sqlb::mem {

/// One lane's pools: a PagePool (default page size, no byte budget) and the
/// single agent-chunk block class.
class AgentArena {
 public:
  AgentArena();

  SlabPool* slabs() { return &slabs_; }

  std::size_t bytes_reserved() const { return pages_.bytes_reserved(); }

 private:
  PagePool pages_;
  SlabPool slabs_;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_AGENT_ARENA_H_
