#ifndef SQLB_DES_SEQLOCK_H_
#define SQLB_DES_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cache_line.h"

/// \file
/// Per-slot sequence locks for relaxed-parity parallel execution.
///
/// Strict epoch-parallel runs (des/simulator.h, LaneGroup) keep lanes
/// state-disjoint by contract: consumer-affine routing guarantees that one
/// consumer's agent state is only ever touched by one lane, so no
/// synchronization is needed and the merged result is bit-identical to
/// serial. Load-aware routing (least-loaded, hash) breaks that contract on
/// purpose — one consumer's queries may mediate on several shards inside
/// one epoch — and this table is what makes that safe: every lane-side
/// access to a consumer's agent goes through the consumer's slot here.
///
/// Each slot is the write side of a classic sequence lock: an even counter
/// means unlocked, odd means a writer is inside, and the counter increments
/// twice per critical section. Lanes are symmetric writers (mediation both
/// reads and updates the consumer window), so Acquire() is an exclusive
/// spin acquire; the sequence numbers additionally expose a cheap
/// monotonic witness of how many critical sections a slot completed
/// (`SequenceOf` — consumed by tests and diagnostics today). The
/// divergence this permits is bounded: aggregate counters are conserved
/// exactly (the effect logs are still merged in (time, lane, seq) order),
/// and per-consumer state sees every update exactly once, just possibly
/// in a different same-epoch order than the serial run.
///
/// The acquire/release pairs establish the happens-before edges
/// ThreadSanitizer (and the hardware) need; slots are cache-line padded so
/// two consumers' locks never share a line.

namespace sqlb::des {

class SeqLockTable {
 public:
  /// RAII critical section over one slot. Default-constructed = no-op,
  /// which lets callers guard conditionally without branching at unlock.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(std::atomic<std::uint32_t>* seq) : seq_(seq) {}
    Guard(Guard&& other) noexcept : seq_(other.seq_) { other.seq_ = nullptr; }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        seq_ = other.seq_;
        other.seq_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    bool holds_lock() const { return seq_ != nullptr; }

   private:
    void Release() {
      if (seq_ != nullptr) {
        // Leave the critical section: odd -> even, publishing every write
        // made inside it to the next acquirer.
        seq_->fetch_add(1, std::memory_order_release);
        seq_ = nullptr;
      }
    }

    std::atomic<std::uint32_t>* seq_ = nullptr;
  };

  explicit SeqLockTable(std::size_t slots) : slots_(slots) {}

  std::size_t size() const { return slots_.size(); }

  /// Enters `slot`'s critical section, spinning while another lane is
  /// inside. Contention is rare by construction — it takes two shards
  /// mediating the same consumer in the same epoch — so a CAS spin beats
  /// anything heavier; the yield keeps an oversubscribed host (more lanes
  /// than cores) from burning a scheduling quantum against a preempted
  /// holder.
  Guard Acquire(std::size_t slot) {
    std::atomic<std::uint32_t>& seq = slots_[slot].seq;
    bool contended = false;
    for (;;) {
      std::uint32_t observed = seq.load(std::memory_order_relaxed);
      if ((observed & 1u) == 0u &&
          seq.compare_exchange_weak(observed, observed + 1,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
        if (contended) contended_.fetch_add(1, std::memory_order_relaxed);
        return Guard(&seq);
      }
      if ((observed & 1u) != 0u) {
        // Count each contended acquire once (not once per spin), and only
        // on a genuinely held lock — spurious weak-CAS failures are not
        // contention.
        contended = true;
        std::this_thread::yield();
      }
    }
  }

  /// Current sequence value of a slot: half of it is the number of
  /// completed critical sections (odd while one is running).
  std::uint32_t SequenceOf(std::size_t slot) const {
    return slots_[slot].seq.load(std::memory_order_acquire);
  }

  /// Acquires that found their slot held (counted once per acquire) —
  /// how often two lanes actually met on one consumer. Purely diagnostic.
  std::uint64_t contended_acquires() const {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint32_t> seq{0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> contended_{0};
};

}  // namespace sqlb::des

#endif  // SQLB_DES_SEQLOCK_H_
