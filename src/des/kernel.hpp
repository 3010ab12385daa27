// Discrete-event simulation kernel.
//
// Every SplitSim component simulator (network partition, host, NIC, core,
// memory...) runs one Kernel: a clock plus a time-ordered event queue with
// deterministic FIFO tie-breaking. This is the hot path of every simulated
// packet, timer, and sync round, so the queue is built for throughput:
//
//  * Events live in a slab of intrusive nodes (no per-event allocation);
//    callbacks are stored with small-buffer optimization (captures up to
//    EventCallback::kInlineCapacity bytes inline, heap fallback beyond).
//  * The queue is two-tier. A calendar of 256 fixed-width buckets covers a
//    window [base, base + 256 x width) of the near future; with the width
//    derived from the channel lookahead (set_bucket_hint), nearly all events
//    of a synchronized component land here and enqueue/dequeue in O(1).
//    Buckets are indexed circularly, (t >> shift) & 255, and the window
//    follows the clock: whenever an executed event's time passes the next
//    bucket edge, the base slides up to it and the far-future events that
//    the window now covers migrate in from the heap, before anything else
//    can be scheduled into that range. A 256-bit occupancy bitmap marks the
//    non-empty buckets, so finding the head is a count-trailing-zeros over
//    four words starting at the base's slot.
//  * Every event outside the window, on either side, waits in a min-heap:
//    timers beyond the window, and events earlier than the base after an
//    empty queue rebased the window on a later first event. The head is the
//    smaller of the first bucket's head and the heap top.
//  * Cancellation is O(1) and exact: an EventId encodes (slab index,
//    generation); cancel unlinks the node (bucket tier) or destroys the
//    callback and invalidates the node's generation (heap tier, leaving a
//    24-byte stale heap entry that is dropped when it reaches the heap top
//    or at the next compaction).
//
// Ordering invariant (the cross-mode determinism digests depend on it):
// events execute in strictly increasing (time, schedule-sequence) order —
// same-time events run in FIFO scheduling order, exactly like the reference
// binary-heap kernel (des/reference_kernel.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace splitsim::des {

/// Type-erased one-shot callback with small-buffer optimization. Constructed
/// in place inside a slab node (nodes never move, so no move support is
/// needed); invoked at most once; destroyed exactly once via destroy().
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  template <typename F>
  void emplace(F&& fn) {
    using T = std::decay_t<F>;
    if constexpr (sizeof(T) <= kInlineCapacity && alignof(T) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(fn));
      ops_ = &inline_ops<T>;
    } else {
      *reinterpret_cast<T**>(buf_) = new T(std::forward<F>(fn));
      ops_ = &heap_ops<T>;
    }
  }

  void invoke() { ops_->invoke(buf_); }
  void destroy() {
    ops_->destroy(buf_);
    ops_ = nullptr;
  }
  bool engaged() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  template <typename T>
  static constexpr Ops inline_ops{
      [](void* p) { (*std::launder(reinterpret_cast<T*>(p)))(); },
      [](void* p) { std::launder(reinterpret_cast<T*>(p))->~T(); }};
  template <typename T>
  static constexpr Ops heap_ops{[](void* p) { (**reinterpret_cast<T**>(p))(); },
                                [](void* p) { delete *reinterpret_cast<T**>(p); }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
};

class Kernel {
 public:
  using EventFn = std::function<void()>;
  /// Opaque cancellation handle: (slab index << 32) | generation. Stale
  /// handles (event already executed or cancelled, even if the slab node was
  /// reused since) fail the generation check and cancel() is a no-op.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now). Events at equal
  /// times run in scheduling order (FIFO), making runs deterministic.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    std::uint32_t ni = prepare_node(t);
    node(ni).cb.emplace(std::forward<F>(fn));
    enqueue_node(ni, t);
    return (static_cast<EventId>(ni) << 32) | node(ni).gen;
  }

  /// Schedule `fn` after a delay relative to now.
  template <typename F>
  EventId schedule_in(SimTime dt, F&& fn) {
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancel a pending event in O(1). Safe to call for already-executed,
  /// already-cancelled, or kInvalidEvent ids (no-op).
  void cancel(EventId id);

  /// Time of the earliest pending event, or kSimTimeMax when empty.
  /// Components poll this after every batch, most of which run no event,
  /// so a valid memo answers inline.
  SimTime next_time() const { return next_valid_ ? next_cache_ : next_time_slow(); }

  /// Advance the clock to the earliest event and execute it.
  /// Precondition: !empty().
  void run_next();

  /// Execute all events scheduled exactly at `next_time()` == t.
  void run_all_at(SimTime t);

  /// Execute every event with time <= t, including ones they schedule, in
  /// order. Same result as `while (next_time() <= t) run_next();` with one
  /// head lookup per event; the runtime processes a batch with it.
  void run_until(SimTime t);

  bool empty() const { return next_time() == kSimTimeMax; }

  /// Directly advance the clock (runtime use: message delivery times).
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  std::uint64_t events_executed() const { return executed_; }
  /// Pending events successfully cancelled (stale-handle no-ops excluded).
  std::uint64_t events_cancelled() const { return cancelled_; }
  /// Events ever placed in the far-future heap (scheduled outside the
  /// calendar window); each one later migrates into a bucket or runs from
  /// the heap top.
  std::uint64_t heap_pushes() const { return heap_pushes_; }

  /// Size the calendar for a component whose events cluster within
  /// `lookahead` of the clock (the channel latency / sync horizon): picks a
  /// power-of-two bucket width such that the window spans >= 2x lookahead.
  /// Applied immediately when the queue is empty, otherwise at the first
  /// window slide that finds the calendar empty.
  void set_bucket_hint(SimTime lookahead);

  // ---- introspection (tests, stats) ------------------------------------

  /// Events currently scheduled (excludes executed and cancelled).
  std::size_t live_events() const { return live_; }
  /// Slab high-water mark: nodes ever allocated (memory stays bounded iff
  /// this plateaus under schedule/cancel churn).
  std::size_t allocated_nodes() const { return node_count_; }
  /// Heap entries, including stale (cancelled) ones not yet dropped.
  std::size_t heap_entries() const { return heap_.size(); }
  SimTime bucket_width() const { return static_cast<SimTime>(1) << shift_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkShift = 9;  // 512 nodes per slab chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kBuckets = 256;
  static constexpr std::size_t kOccupancyWords = kBuckets / 64;

  enum class Loc : std::uint8_t { kFree, kBucket, kHeap, kExecuting };

  struct Node {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal times
    std::uint32_t prev = kNil, next = kNil;
    std::uint32_t gen = 1;
    Loc loc = Loc::kFree;
    EventCallback cb;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Heap tier entry; min-ordered by (time, seq). `gen` detects cancelled
  /// (stale) entries.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;
  };

  Node& node(std::uint32_t i) const { return chunks_[i >> kChunkShift][i & (kChunkSize - 1)]; }

  std::size_t slot(SimTime t) const { return static_cast<std::size_t>(t >> shift_) & (kBuckets - 1); }
  /// t lies in [base_, base_ + 256 x width).
  bool in_window(SimTime t) const { return t >= base_ && ((t - base_) >> shift_) < kBuckets; }

  std::uint32_t prepare_node(SimTime t);
  void enqueue_node(std::uint32_t ni, SimTime t);
  void free_node(std::uint32_t ni);
  void bucket_insert(std::size_t b, std::uint32_t ni);
  void bucket_unlink(std::size_t b, std::uint32_t ni);
  /// First non-empty bucket in window order. Precondition: bucketed_ > 0.
  std::size_t head_bucket() const;
  /// True if the heap top is live; otherwise drop it. Precondition: a
  /// non-empty heap.
  bool heap_top_live() const;
  /// The pending event that runs next and the tier that holds it.
  struct Head {
    std::uint32_t ni;  ///< kNil when nothing is pending
    bool from_heap;
  };
  Head head() const;
  /// Remove the head from its tier and run it.
  void run_head(Head h);
  /// The clock passed the next bucket edge: move base_ up to it (applying a
  /// deferred hint if the calendar is empty) and migrate the heap events
  /// the window now covers into buckets.
  void slide();
  /// next_time() with an invalid memo: look up the head and memoize it.
  SimTime next_time_slow() const;
  void heap_push(HeapEntry e);
  void heap_pop() const;
  /// Remove stale (cancelled) entries and re-heapify; triggered when over
  /// half the heap is stale so far-future schedule/cancel churn stays O(1)
  /// amortized with bounded memory.
  void compact_heap();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t bucketed_ = 0;  ///< live events in the calendar tier
  /// next_time() memo: valid until the head may have changed (the head
  /// runs, or an event at or before it is cancelled); a schedule only
  /// lowers it.
  mutable SimTime next_cache_ = kSimTimeMax;
  mutable bool next_valid_ = true;

  // Slab: chunked so node addresses are stable across growth.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::uint32_t free_head_ = kNil;

  // Two-tier queue state.
  std::vector<Bucket> buckets_;
  /// Bit b set iff buckets_[b] is non-empty.
  std::uint64_t occupied_[kOccupancyWords] = {};
  /// Mutable so const lookups can drop stale entries off the top (same
  /// pattern as the reference kernel's lazy-deletion queue).
  mutable std::vector<HeapEntry> heap_;
  mutable std::size_t heap_stale_ = 0;  ///< stale entries since last compaction
  SimTime base_ = 0;          ///< left edge of the window, a multiple of the width
  std::uint32_t shift_ = 11;  ///< log2(bucket width in ps)
  /// Deferred set_bucket_hint shift + 1, applied at the next slide that
  /// finds the calendar empty (0 = no pending hint; +1 so a legitimate
  /// shift of 0 is representable).
  std::uint32_t pending_shift_plus1_ = 0;

  /// Cold observability counters, kept after the queue state so adding
  /// them does not shift the hot members' layout.
  std::uint64_t cancelled_ = 0;
  std::uint64_t heap_pushes_ = 0;
};

}  // namespace splitsim::des
