// Lock-free single-producer single-consumer ring of Message slots.
//
// This is the shared-memory queue under every SplitSim channel. One producer
// thread (the sending component simulator) and one consumer thread (the
// receiving one); indices live on separate cache lines to avoid false
// sharing. Polling this ring is what the SplitSim profiler attributes as
// "cycles blocked on synchronization".
//
// The index block (RingState) and the slot array are plain address-free
// data, so the same ring works across OS processes when its storage lives
// in a mapped shm segment: MessageRing is a *view* over (state, slots) and
// only optionally owns them. std::atomic<uint64_t>/<uint32_t> are
// lock-free and address-free on every platform we target, which is the
// property that makes placing them in shared memory legal.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "sync/futex.hpp"
#include "sync/message.hpp"
#include "sync/wait.hpp"

namespace splitsim::sync {

/// Index block of one SPSC ring: trivially constructible-in-place POD so it
/// can live inside a shm segment shared by two processes. `park_seq` /
/// `park_waiters` implement cross-process producer parking: a producer that
/// finds the ring full futex-waits on park_seq; the consumer bumps and
/// wakes after popping, but only when a waiter advertised itself (so the
/// pop fast path pays one relaxed load).
struct RingState {
  alignas(64) std::atomic<std::uint64_t> head{0};  // producer-owned
  alignas(64) std::atomic<std::uint64_t> tail{0};  // consumer-owned
  alignas(64) std::atomic<std::uint32_t> park_seq{0};
  std::atomic<std::uint32_t> park_waiters{0};
};
static_assert(std::is_trivially_destructible_v<RingState>);

class MessageRing {
 public:
  /// Owning ring on the heap. `capacity` must be a power of two. The slot
  /// storage is not zero-filled: a slot is read only after a push wrote it.
  explicit MessageRing(std::size_t capacity = 512)
      : capacity_(capacity), mask_(capacity - 1),
        owned_state_(std::make_unique<RingState>()),
        owned_slots_(std::make_unique_for_overwrite<unsigned char[]>(capacity * sizeof(Message))),
        st_(owned_state_.get()), slots_(reinterpret_cast<Message*>(owned_slots_.get())) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  }

  /// View over external storage (a shm segment). The storage must be
  /// zero-initialized (or placement-new'd) RingState + `capacity` Message
  /// slots, and must outlive the view. `futex_park` enables cross-process
  /// producer parking on the state's park words.
  MessageRing(RingState* state, Message* slots, std::size_t capacity, bool futex_park)
      : capacity_(capacity), mask_(capacity - 1), st_(state), slots_(slots),
        futex_park_(futex_park) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  }

  MessageRing(const MessageRing&) = delete;
  MessageRing& operator=(const MessageRing&) = delete;

  /// Producer: enqueue a copy of `msg`'s header and its `size` payload
  /// bytes (the rest of the slot keeps stale bytes nothing reads). Returns
  /// false when full.
  bool try_push(const Message& msg) {
    std::uint64_t head = st_->head.load(std::memory_order_relaxed);
    std::uint64_t tail = st_->tail.load(std::memory_order_acquire);
    if (head - tail >= capacity_) return false;
    Message& slot = slots_[head & mask_];
    slot.timestamp = msg.timestamp;
    slot.type = msg.type;
    slot.subchannel = msg.subchannel;
    slot.size = msg.size;
    if (msg.size != 0) std::memcpy(slot.payload, msg.payload, msg.size);
    st_->head.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer: one step of a full-ring wait. Heap rings use the caller's
  /// adaptive spin/yield/park policy; futex-parking rings advertise a
  /// waiter and sleep on the segment's park word until the consumer pops
  /// (bounded by a timeout so callers can re-check abort flags).
  void producer_wait_step(WaitState& ws) {
    if (!futex_park_) {
      ws.step();
      return;
    }
    std::uint32_t seq = st_->park_seq.load(std::memory_order_acquire);
    st_->park_waiters.store(1, std::memory_order_seq_cst);
    // Re-check after advertising: a pop between the full check and here
    // would otherwise be missed (the consumer only wakes when it sees the
    // waiter flag).
    std::uint64_t head = st_->head.load(std::memory_order_relaxed);
    std::uint64_t tail = st_->tail.load(std::memory_order_acquire);
    if (head - tail < capacity_) return;
    if (park_counter_ != nullptr) park_counter_->fetch_add(1, std::memory_order_relaxed);
    futex_wait(&st_->park_seq, seq, 2'000'000);  // 2ms: re-check abort often
  }

  /// Consumer: pointer to the oldest message, or nullptr when empty.
  /// The pointer stays valid until pop().
  const Message* front() const {
    std::uint64_t tail = st_->tail.load(std::memory_order_relaxed);
    std::uint64_t head = st_->head.load(std::memory_order_acquire);
    if (tail == head) return nullptr;
    return &slots_[tail & mask_];
  }

  /// Consumer: discard the oldest message. Precondition: !empty.
  void pop() {
    std::uint64_t tail = st_->tail.load(std::memory_order_relaxed);
    st_->tail.store(tail + 1, std::memory_order_release);
    if (futex_park_ && st_->park_waiters.load(std::memory_order_seq_cst) != 0) {
      st_->park_waiters.store(0, std::memory_order_relaxed);
      st_->park_seq.fetch_add(1, std::memory_order_release);
      if (wake_counter_ != nullptr) wake_counter_->fetch_add(1, std::memory_order_relaxed);
      futex_wake_all(&st_->park_seq);
    }
  }

  /// Consumer: number of messages currently visible, with a single acquire.
  /// The batched channel drain uses this to pay one synchronizing load per
  /// batch instead of one per message (front() re-acquires every call).
  std::size_t ready() const {
    return static_cast<std::size_t>(st_->head.load(std::memory_order_acquire) -
                                    st_->tail.load(std::memory_order_relaxed));
  }

  /// Consumer: the oldest message WITHOUT synchronizing against the
  /// producer. Only valid while a prior ready() in the same drain reports
  /// more messages than have been popped since.
  const Message& front_unsynchronized() const {
    return slots_[st_->tail.load(std::memory_order_relaxed) & mask_];
  }

  bool empty() const { return front() == nullptr; }
  std::size_t capacity() const { return capacity_; }

  /// Attach park/wake counters (bumped only on the futex slow paths, so the
  /// ring fast path is untouched). Used by shm transports for obs.
  void set_park_counters(std::atomic<std::uint64_t>* parks,
                         std::atomic<std::uint64_t>* wakes) {
    park_counter_ = parks;
    wake_counter_ = wakes;
  }

  /// Approximate occupancy (either end may race; fine for stats).
  std::size_t size() const {
    return static_cast<std::size_t>(st_->head.load(std::memory_order_acquire) -
                                    st_->tail.load(std::memory_order_acquire));
  }

  /// Total bytes a shm segment must reserve for one ring's storage
  /// (RingState + slots), each 64-byte aligned.
  static std::size_t storage_bytes(std::size_t capacity) {
    return sizeof(RingState) + capacity * sizeof(Message);
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<RingState> owned_state_;
  std::unique_ptr<unsigned char[]> owned_slots_;  ///< raw slot storage
  RingState* st_;
  Message* slots_;
  const bool futex_park_ = false;
  std::atomic<std::uint64_t>* park_counter_ = nullptr;
  std::atomic<std::uint64_t>* wake_counter_ = nullptr;
};

}  // namespace splitsim::sync
