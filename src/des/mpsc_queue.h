#ifndef SQLB_DES_MPSC_QUEUE_H_
#define SQLB_DES_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

#include "common/cache_line.h"
#include "common/status.h"
#include "mem/page_pool.h"

/// \file
/// Lock-free multi-producer single-consumer intake queue — the wall-clock
/// serving tier's bridge between real producer threads and the mediator
/// thread (runtime/serving_mediator.h). Everything under the DES is
/// single-threaded by design; this queue is the one place where arrivals
/// cross from arbitrary threads into that world.
///
/// Design:
///  - The queue itself is Vyukov's intrusive MPSC linked queue: producers
///    publish with one atomic exchange on the tail plus one release store
///    on the predecessor's next link (wait-free per push); the consumer
///    walks next links with acquire loads. No CAS loops on the hot path.
///  - Nodes are carved from fixed-size chunks drawn from the existing
///    mem::SlabPool (kNodesPerChunk nodes per block, pages recycled
///    forever, never returned to the OS), and recycle through a
///    version-tagged index freelist: a 64-bit (index, version) head makes
///    the freelist pop CAS ABA-safe without double-wide atomics. Steady
///    state touches no mutex; only chunk growth — freelist empty — takes
///    the growth lock around one SlabPool::Allocate.
///  - Capacity is bounded (max_chunks x kNodesPerChunk live nodes, plus
///    whatever byte budget the backing PagePool enforces): Push returns
///    false instead of blocking or allocating unboundedly, which is the
///    backpressure signal an open-loop load generator sheds on.
///
/// Contract: any number of producer threads may call Push concurrently;
/// exactly one thread (the mediator) calls TryPop/Empty. Destruction
/// requires all producers to have stopped.

namespace sqlb::des {

template <typename T>
class MpscQueue {
 public:
  /// Nodes carved per SlabPool block. The owning tier sizes its slab as
  /// SlabPool(pages, MpscQueue<T>::ChunkBytes()).
  static constexpr std::size_t kNodesPerChunk = 8;
  static constexpr std::size_t kDefaultMaxChunks = 1u << 16;

  static constexpr std::size_t ChunkBytes() {
    return sizeof(Node) * kNodesPerChunk;
  }

  /// `slab` must outlive the queue and hand out blocks of at least
  /// ChunkBytes(). `max_chunks` bounds live nodes (and the directory the
  /// index freelist resolves through).
  explicit MpscQueue(mem::SlabPool* slab,
                     std::size_t max_chunks = kDefaultMaxChunks)
      : slab_(slab),
        max_chunks_(max_chunks),
        chunks_(new Node*[max_chunks]()) {
    SQLB_CHECK(slab != nullptr, "MpscQueue needs a slab pool");
    SQLB_CHECK(slab->block_bytes() >= ChunkBytes(),
               "slab blocks too small for a node chunk");
    SQLB_CHECK(max_chunks >= 1 && max_chunks <= (kNilIndex / kNodesPerChunk),
               "max_chunks out of range");
    Node* stub = AcquireNode();
    SQLB_CHECK(stub != nullptr, "slab pool exhausted at construction");
    stub->next.store(nullptr, std::memory_order_relaxed);
    head_ = stub;
    tail_.store(stub, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    // No producers may be live here. Destroy undelivered payloads, then
    // return every chunk to the slab.
    T drained;
    while (TryPop(&drained)) {
    }
    const std::size_t chunks = num_chunks_.load(std::memory_order_acquire);
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t i = 0; i < kNodesPerChunk; ++i) {
        chunks_[c][i].~Node();
      }
      slab_->Free(chunks_[c]);
    }
  }

  /// Multi-producer. False when the node budget (max_chunks or the backing
  /// pool's byte cap) is exhausted — the caller's backpressure signal; the
  /// queue itself is unchanged.
  bool Push(T value) {
    Node* node = AcquireNode();
    if (node == nullptr) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    new (node->storage) T(std::move(value));
    node->next.store(nullptr, std::memory_order_relaxed);
    Node* prev = tail_.exchange(node, std::memory_order_acq_rel);
    // Publication point: until this store, the consumer sees prev->next ==
    // nullptr and treats the push as in flight.
    prev->next.store(node, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Multi-producer batch push: enqueues `values[0..count)` in order with
  /// ONE freelist reservation per acquired chain and ONE tail exchange per
  /// call, instead of one of each per value — the enqueue-amortization path
  /// behind ServingMediator::SubmitMany. Returns how many values were
  /// enqueued (a prefix of the input); fewer than `count` means the node
  /// budget ran out mid-batch, and the refused tail is counted in shed().
  /// FIFO order within the batch is preserved, and the whole accepted
  /// prefix becomes visible to the consumer atomically with respect to this
  /// producer (one publication store).
  std::size_t PushMany(const T* values, std::size_t count) {
    if (count == 0) return 0;
    Node* first = nullptr;
    Node* last = nullptr;
    const std::size_t got = AcquireChain(count, &first, &last);
    if (got < count) {
      shed_.fetch_add(count - got, std::memory_order_relaxed);
      if (got == 0) return 0;
    }
    // Construct payloads and stitch the queue links locally; the terminal
    // null and every interior link are published by the single release
    // store below (happens-before via the consumer's acquire of prev->next).
    Node* node = first;
    for (std::size_t i = 0; i < got; ++i) {
      new (node->storage) T(values[i]);
      node = node->next.load(std::memory_order_relaxed);
    }
    last->next.store(nullptr, std::memory_order_relaxed);
    Node* prev = tail_.exchange(last, std::memory_order_acq_rel);
    prev->next.store(first, std::memory_order_release);
    pushed_.fetch_add(got, std::memory_order_relaxed);
    return got;
  }

  /// Single consumer. False when the queue is empty. A push caught between
  /// its tail exchange and its next-link publication is waited out with a
  /// bounded spin (the window is two instructions on the producer side).
  bool TryPop(T* out) {
    Node* head = head_;
    Node* next = head->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      if (tail_.load(std::memory_order_acquire) == head) {
        return false;  // truly empty
      }
      do {  // producer mid-publication
        next = head->next.load(std::memory_order_acquire);
      } while (next == nullptr);
    }
    T* value = std::launder(reinterpret_cast<T*>(next->storage));
    *out = std::move(*value);
    value->~T();
    head_ = next;
    ReleaseNode(head);
    popped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer-side emptiness: no published node and no push in flight.
  bool Empty() const {
    return head_->next.load(std::memory_order_acquire) == nullptr &&
           tail_.load(std::memory_order_acquire) == head_;
  }

  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t popped() const {
    return popped_.load(std::memory_order_relaxed);
  }
  /// Pushes refused for want of a node (the shed/backpressure tally).
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::size_t chunks_allocated() const {
    return num_chunks_.load(std::memory_order_acquire);
  }

 private:
  struct Node {
    /// Queue link (Vyukov next pointer).
    std::atomic<Node*> next{nullptr};
    /// Freelist link, as a node index (kNilIndex terminates).
    std::atomic<std::uint32_t> free_next{kNilIndex};
    /// This node's own dense index (chunk * kNodesPerChunk + offset).
    std::uint32_t self = 0;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  static std::uint64_t PackHead(std::uint32_t index, std::uint32_t version) {
    return (static_cast<std::uint64_t>(version) << 32) | index;
  }
  static std::uint32_t HeadIndex(std::uint64_t head) {
    return static_cast<std::uint32_t>(head & 0xffffffffu);
  }
  static std::uint32_t HeadVersion(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  Node* NodeAt(std::uint32_t index) const {
    // chunks_[c] was written before the freelist CAS that published any
    // index into chunk c (release), and the caller read that index with an
    // acquire load — the happens-before edge that makes this plain read
    // race-free.
    return chunks_[index / kNodesPerChunk] + (index % kNodesPerChunk);
  }

  /// Pops one node off the version-tagged freelist, growing a chunk when
  /// it runs dry. Null when the budget is exhausted.
  Node* AcquireNode() {
    for (;;) {
      std::uint64_t head = free_head_.load(std::memory_order_acquire);
      const std::uint32_t index = HeadIndex(head);
      if (index == kNilIndex) {
        if (!Grow()) return nullptr;
        continue;
      }
      Node* node = NodeAt(index);
      const std::uint32_t next = node->free_next.load(std::memory_order_relaxed);
      // The version tag defeats ABA: if this node was popped and re-pushed
      // since `head` was read, the version moved and the CAS fails.
      if (free_head_.compare_exchange_weak(
              head, PackHead(next, HeadVersion(head) + 1),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        return node;
      }
    }
  }

  /// Pops up to `want` nodes with one head CAS per acquired run: walk the
  /// freelist chain from the head, then CAS the head past the whole run.
  /// While the head (index, version) is unchanged the chain hanging off it
  /// is immutable — every freelist mutation goes through a head CAS — so a
  /// successful CAS hands the entire walked run to this producer. The run
  /// is relinked into a queue-order chain through the nodes' `next` fields
  /// (relaxed; published later by PushMany's release store). Grows when the
  /// freelist runs dry; returns fewer than `want` only when the node budget
  /// is exhausted.
  std::size_t AcquireChain(std::size_t want, Node** first, Node** last) {
    std::size_t total = 0;
    while (total < want) {
      std::uint64_t head = free_head_.load(std::memory_order_acquire);
      const std::uint32_t head_index = HeadIndex(head);
      if (head_index == kNilIndex) {
        if (!Grow()) break;
        continue;
      }
      // Walk up to the remaining need. A concurrent pop/release moves the
      // head version and fails the CAS below, so a stale walk never leaks
      // nodes; indices read mid-walk are always in-range (free_next only
      // ever holds indices this queue wrote).
      std::size_t run = 1;
      std::uint32_t run_last = head_index;
      std::uint32_t after = NodeAt(run_last)->free_next.load(
          std::memory_order_relaxed);
      while (run < want - total && after != kNilIndex) {
        run_last = after;
        after = NodeAt(run_last)->free_next.load(std::memory_order_relaxed);
        ++run;
      }
      if (!free_head_.compare_exchange_weak(
              head, PackHead(after, HeadVersion(head) + 1),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        continue;
      }
      // The run is ours and its free_next links are now private; convert it
      // into a queue-order `next` chain appended to what we have so far.
      std::uint32_t index = head_index;
      for (std::size_t i = 0; i < run; ++i) {
        Node* node = NodeAt(index);
        if (*first == nullptr) {
          *first = node;
        } else {
          (*last)->next.store(node, std::memory_order_relaxed);
        }
        *last = node;
        index = node->free_next.load(std::memory_order_relaxed);
      }
      total += run;
    }
    return total;
  }

  void ReleaseNode(Node* node) {
    std::uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      node->free_next.store(HeadIndex(head), std::memory_order_relaxed);
      if (free_head_.compare_exchange_weak(
              head, PackHead(node->self, HeadVersion(head) + 1),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Carves one more chunk onto the freelist. Serialized by growth_mu_ —
  /// growth is the amortized slow path; steady-state Push never gets here.
  bool Grow() {
    std::lock_guard<std::mutex> lock(growth_mu_);
    if (HeadIndex(free_head_.load(std::memory_order_acquire)) != kNilIndex) {
      return true;  // another producer grew while we waited on the lock
    }
    const std::size_t chunk = num_chunks_.load(std::memory_order_relaxed);
    if (chunk >= max_chunks_) return false;
    void* block = slab_->Allocate();
    if (block == nullptr) return false;  // PagePool byte budget exhausted
    Node* nodes = static_cast<Node*>(block);
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunk * kNodesPerChunk);
    for (std::size_t i = 0; i < kNodesPerChunk; ++i) {
      new (&nodes[i]) Node();
      nodes[i].self = base + static_cast<std::uint32_t>(i);
      nodes[i].free_next.store(
          i + 1 < kNodesPerChunk ? base + static_cast<std::uint32_t>(i) + 1
                                 : kNilIndex,
          std::memory_order_relaxed);
    }
    chunks_[chunk] = nodes;
    num_chunks_.store(chunk + 1, std::memory_order_release);
    // Splice the whole chain in with one CAS per retry; the release makes
    // the chunk directory entry visible to whoever pops these indices.
    std::uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      nodes[kNodesPerChunk - 1].free_next.store(HeadIndex(head),
                                                std::memory_order_relaxed);
      if (free_head_.compare_exchange_weak(
              head, PackHead(base, HeadVersion(head) + 1),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  mem::SlabPool* const slab_;
  const std::size_t max_chunks_;
  /// Chunk directory (fixed size, entries written once under growth_mu_).
  std::unique_ptr<Node*[]> chunks_;
  std::atomic<std::size_t> num_chunks_{0};
  std::mutex growth_mu_;

  /// (index, version)-tagged freelist head.
  alignas(kCacheLine) std::atomic<std::uint64_t> free_head_{
      PackHead(kNilIndex, 0)};
  /// Producer end: exchanged by every Push.
  alignas(kCacheLine) std::atomic<Node*> tail_{nullptr};
  /// Consumer end: touched only by the consumer thread.
  alignas(kCacheLine) Node* head_ = nullptr;

  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace sqlb::des

#endif  // SQLB_DES_MPSC_QUEUE_H_
