#ifndef SQLB_MEM_CHUNKED_FIFO_H_
#define SQLB_MEM_CHUNKED_FIFO_H_

#include <cstddef>
#include <new>
#include <utility>

#include "common/status.h"
#include "mem/page_pool.h"

/// \file
/// FIFO queue over fixed-size chunks, the per-agent service queue and
/// utilization event log. Chunks are allocated on first push, so an idle
/// agent holds no queue memory at all; they come from a SlabPool, or from
/// the heap when no pool is wired (standalone agents in unit tests and
/// examples). Each chunk records the pool it came from:
/// a provider migrated by a churn handoff or failover adoption drains chunks
/// allocated on its old shard's arena from its new lane, and every chunk
/// returns to its owner.

namespace sqlb::mem {

/// The chunk granule shared by the agent containers. Small enough that a
/// provider holding a handful of queued queries or window entries stays
/// within one chunk.
inline constexpr std::size_t kAgentChunkBytes = 512;

template <typename T>
class ChunkedFifo {
 public:
  struct ChunkHeader {
    ChunkHeader* next;
    SlabPool* owner;  // nullptr = heap chunk
  };

  static constexpr std::size_t kChunkCapacity =
      (kAgentChunkBytes - sizeof(ChunkHeader)) / sizeof(T);
  static_assert(kChunkCapacity >= 1, "chunk too small for one element");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned element type");

  /// Allocates nothing until the first push.
  ChunkedFifo() = default;

  ~ChunkedFifo() { Release(); }

  ChunkedFifo(const ChunkedFifo&) = delete;
  ChunkedFifo& operator=(const ChunkedFifo&) = delete;

  ChunkedFifo(ChunkedFifo&& other) noexcept { MoveFrom(other); }
  ChunkedFifo& operator=(ChunkedFifo&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }

  /// Appends `value`; chunks come from `pool` when non-null, the heap
  /// otherwise. Returns false (queue unchanged) when the pool's page budget
  /// is exhausted — the caller surfaces the out-of-memory status.
  bool push_back(T value, SlabPool* pool) {
    if (tail_ == nullptr) {
      ChunkHeader* c = NewChunk(pool);
      if (c == nullptr) return false;
      head_ = tail_ = c;
      head_idx_ = tail_idx_ = 0;
    } else if (tail_idx_ == kChunkCapacity) {
      ChunkHeader* c = NewChunk(pool);
      if (c == nullptr) return false;
      tail_->next = c;
      tail_ = c;
      tail_idx_ = 0;
    }
    ::new (static_cast<void*>(Slots(tail_) + tail_idx_)) T(std::move(value));
    ++tail_idx_;
    ++size_;
    return true;
  }

  T& front() {
    SQLB_CHECK(size_ > 0, "ChunkedFifo::front on empty queue");
    return Slots(head_)[head_idx_];
  }
  const T& front() const {
    SQLB_CHECK(size_ > 0, "ChunkedFifo::front on empty queue");
    return Slots(head_)[head_idx_];
  }

  void pop_front() {
    SQLB_CHECK(size_ > 0, "ChunkedFifo::pop_front on empty queue");
    Slots(head_)[head_idx_].~T();
    ++head_idx_;
    --size_;
    if (size_ == 0) {
      // head_ == tail_ whenever the queue is empty (middle chunks are
      // always full). Rewind in place: the last chunk is retained so an
      // enqueue/dequeue steady state never touches the allocator.
      head_idx_ = tail_idx_ = 0;
    } else if (head_idx_ == kChunkCapacity) {
      ChunkHeader* old = head_;
      head_ = old->next;
      head_idx_ = 0;
      FreeChunk(old);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Bytes of chunk storage currently held (the residency this queue
  /// contributes to bytes_per_provider).
  std::size_t resident_bytes() const { return chunks_ * kAgentChunkBytes; }

  /// Pops every element and frees every chunk (including the retained one).
  void Clear() { Release(); }

 private:
  static T* Slots(ChunkHeader* c) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(c) +
                                sizeof(ChunkHeader));
  }
  static const T* Slots(const ChunkHeader* c) {
    return reinterpret_cast<const T*>(reinterpret_cast<const char*>(c) +
                                      sizeof(ChunkHeader));
  }

  ChunkHeader* NewChunk(SlabPool* pool) {
    void* raw = pool != nullptr ? pool->Allocate()
                                : ::operator new(kAgentChunkBytes,
                                                 std::nothrow);
    if (raw == nullptr) return nullptr;
    ChunkHeader* c = static_cast<ChunkHeader*>(raw);
    c->next = nullptr;
    c->owner = pool;
    ++chunks_;
    return c;
  }

  void FreeChunk(ChunkHeader* c) {
    SQLB_CHECK(chunks_ > 0, "chunk accounting underflow");
    --chunks_;
    if (c->owner != nullptr) {
      c->owner->Free(c);
    } else {
      ::operator delete(static_cast<void*>(c));
    }
  }

  void Release() {
    while (size_ > 0) pop_front();
    if (head_ != nullptr) {
      FreeChunk(head_);
      head_ = tail_ = nullptr;
    }
    head_idx_ = tail_idx_ = 0;
  }

  void MoveFrom(ChunkedFifo& other) noexcept {
    head_ = other.head_;
    tail_ = other.tail_;
    head_idx_ = other.head_idx_;
    tail_idx_ = other.tail_idx_;
    size_ = other.size_;
    chunks_ = other.chunks_;
    other.head_ = other.tail_ = nullptr;
    other.head_idx_ = other.tail_idx_ = 0;
    other.size_ = 0;
    other.chunks_ = 0;
  }

  ChunkHeader* head_ = nullptr;
  ChunkHeader* tail_ = nullptr;
  std::size_t head_idx_ = 0;  // index of front() in head_
  std::size_t tail_idx_ = 0;  // one past the last element in tail_
  std::size_t size_ = 0;
  std::size_t chunks_ = 0;
};

}  // namespace sqlb::mem

#endif  // SQLB_MEM_CHUNKED_FIFO_H_
