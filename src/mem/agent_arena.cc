#include "mem/agent_arena.h"

#include "mem/chunked_fifo.h"

namespace sqlb::mem {

AgentArena::AgentArena() : slabs_(&pages_, kAgentChunkBytes) {}

}  // namespace sqlb::mem
