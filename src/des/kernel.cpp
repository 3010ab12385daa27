#include "des/kernel.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace splitsim::des {

Kernel::Kernel() { buckets_.resize(kBuckets); }

Kernel::~Kernel() {
  // Destroy callbacks of still-pending events (cancelled heap nodes and
  // executed events were destroyed eagerly; engaged() tracks exactly the
  // ones that remain).
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    Node& n = node(i);
    if (n.cb.engaged()) n.cb.destroy();
  }
}

std::uint32_t Kernel::prepare_node(SimTime t) {
  if (t < now_) throw std::logic_error("Kernel::schedule_at: time in the past");
  std::uint32_t ni;
  if (free_head_ != kNil) {
    ni = free_head_;
    free_head_ = node(ni).next;
  } else {
    if ((node_count_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    }
    ni = node_count_++;
  }
  Node& n = node(ni);
  n.time = t;
  n.seq = next_seq_++;
  n.prev = n.next = kNil;
  return ni;
}

void Kernel::enqueue_node(std::uint32_t ni, SimTime t) {
  // Empty queue: rebase the window on this event so sparse schedules
  // (periodic polls far apart) stay in the O(1) bucket tier.
  if (live_ == 0 && heap_.empty()) base_ = (t >> shift_) << shift_;
  ++live_;
  std::uint64_t delta = t >= base_ ? t - base_ : 0;
  std::uint64_t b = delta >> shift_;
  if (b < kBuckets) {
    bucket_insert(static_cast<std::size_t>(b), ni);
  } else {
    Node& n = node(ni);
    n.loc = Loc::kHeap;
    heap_push(HeapEntry{t, n.seq, ni, n.gen});
  }
}

void Kernel::free_node(std::uint32_t ni) {
  Node& n = node(ni);
  if (++n.gen == 0) n.gen = 1;  // keep ids nonzero and distinct from kInvalidEvent
  n.loc = Loc::kFree;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = ni;
}

void Kernel::bucket_insert(std::size_t b, std::uint32_t ni) const {
  Bucket& bk = buckets_[b];
  Node& n = node(ni);
  n.loc = Loc::kBucket;
  // Walk from the tail to the last node with time <= n.time. seq is
  // globally monotone, so inserting there preserves (time, seq) order; the
  // walk terminates immediately in the common in-order-scheduling case.
  std::uint32_t after = bk.tail;
  while (after != kNil && node(after).time > n.time) after = node(after).prev;
  n.prev = after;
  if (after == kNil) {
    n.next = bk.head;
    bk.head = ni;
  } else {
    n.next = node(after).next;
    node(after).next = ni;
  }
  if (n.next == kNil) {
    bk.tail = ni;
  } else {
    node(n.next).prev = ni;
  }
  occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
}

void Kernel::bucket_unlink(std::size_t b, std::uint32_t ni) {
  Bucket& bk = buckets_[b];
  Node& n = node(ni);
  if (n.prev == kNil) {
    bk.head = n.next;
  } else {
    node(n.prev).next = n.next;
  }
  if (n.next == kNil) {
    bk.tail = n.prev;
  } else {
    node(n.next).prev = n.prev;
  }
  n.prev = n.next = kNil;
  if (bk.head == kNil) occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

void Kernel::heap_push(HeapEntry e) const {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), [](const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  });
}

Kernel::HeapEntry Kernel::heap_pop() const {
  std::pop_heap(heap_.begin(), heap_.end(), [](const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  });
  HeapEntry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Kernel::rotate_from_heap() const {
  // Drop stale entries (cancelled while in the heap tier) from the top.
  while (!heap_.empty() && node(heap_.front().idx).gen != heap_.front().gen) heap_pop();
  if (heap_.empty()) return false;
  if (pending_shift_plus1_ != 0) {
    shift_ = pending_shift_plus1_ - 1;
    pending_shift_plus1_ = 0;
  }
  SimTime top_t = heap_.front().time;
  base_ = (top_t >> shift_) << shift_;
  SimTime span = static_cast<SimTime>(kBuckets) << shift_;
  bool saturated = base_ > kSimTimeMax - span;
  SimTime wend = saturated ? kSimTimeMax : base_ + span;
  // Migrate every heap event inside the new window. Pops come in (time,
  // seq) order, so bucket insertion is a pure append.
  while (!heap_.empty()) {
    HeapEntry e = heap_.front();
    if (node(e.idx).gen != e.gen) {
      heap_pop();
      continue;
    }
    if (!saturated && e.time >= wend) break;
    heap_pop();
    std::uint64_t b = (e.time - base_) >> shift_;
    if (b >= kBuckets) b = kBuckets - 1;  // only reachable when saturated
    bucket_insert(static_cast<std::size_t>(b), e.idx);
  }
  return true;
}

void Kernel::compact_heap() const {
  // Drop every stale entry and re-heapify; amortized O(1) per cancellation
  // since at least half the entries are stale when this triggers.
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (node(e.idx).gen == e.gen) heap_[kept++] = e;
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), [](const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  });
  heap_stale_ = 0;
}

void Kernel::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  std::uint32_t ni = static_cast<std::uint32_t>(id >> 32);
  std::uint32_t gen = static_cast<std::uint32_t>(id);
  if (ni >= node_count_) return;
  Node& n = node(ni);
  if (n.gen != gen) return;  // already executed or cancelled (node may be reused)
  if (n.loc == Loc::kBucket) {
    // base_/shift_ cannot have changed since insertion (the window only
    // rotates when the calendar is empty), so the node's bucket is
    // recomputable from its time.
    std::uint64_t delta = n.time >= base_ ? n.time - base_ : 0;
    std::uint64_t b = delta >> shift_;
    if (b >= kBuckets) b = kBuckets - 1;
    bucket_unlink(static_cast<std::size_t>(b), ni);
  } else if (n.loc == Loc::kHeap) {
    // The 16-byte heap entry goes stale and is dropped at the next rotation
    // or compaction; the callback and node are reclaimed right now. The
    // compaction keeps heap memory bounded under schedule/cancel churn in
    // the far-future tier.
    if (++heap_stale_ > 64 && heap_stale_ * 2 > heap_.size()) compact_heap();
  } else {
    return;  // kExecuting: the running event cannot cancel itself
  }
  n.cb.destroy();
  free_node(ni);
  --live_;
  ++cancelled_;
}

SimTime Kernel::next_time() const {
  if (live_ == 0) {
    // Common fast path (idle component, schedule/cancel churn): nothing is
    // pending, so skip the calendar scan. Any remaining heap entries are
    // stale; reclaim them now.
    if (!heap_.empty()) {
      heap_.clear();
      heap_stale_ = 0;
    }
    return kSimTimeMax;
  }
  std::size_t b = head_bucket();
  return b < kBuckets ? node(buckets_[b].head).time : kSimTimeMax;
}

std::size_t Kernel::head_bucket() const {
  for (;;) {
    for (std::size_t w = 0; w < kOccupancyWords; ++w) {
      if (occupied_[w] != 0) return w * 64 + std::countr_zero(occupied_[w]);
    }
    if (!rotate_from_heap()) return kBuckets;
  }
}

void Kernel::run_next() {
  // live_ > 0 guarantees head_bucket() finds a non-empty bucket (rotating
  // the window in from the heap if needed). This check, rather than
  // comparing next_time() to kSimTimeMax, keeps an event scheduled at
  // kSimTimeMax itself runnable, exactly like the reference kernel.
  if (live_ == 0) throw std::logic_error("Kernel::run_next: empty queue");
  const std::size_t b = head_bucket();
  std::uint32_t ni = buckets_[b].head;
  bucket_unlink(b, ni);
  Node& n = node(ni);
  n.loc = Loc::kExecuting;
  now_ = n.time;
  ++executed_;
  --live_;
  // Destroy + reclaim after the callback returns (or unwinds), mirroring
  // the reference kernel's moved-out Entry lifetime: the closure stays
  // alive while it runs, and new events scheduled by it use other nodes.
  struct Guard {
    Kernel* k;
    std::uint32_t ni;
    ~Guard() {
      k->node(ni).cb.destroy();
      k->free_node(ni);
    }
  } guard{this, ni};
  n.cb.invoke();
}

void Kernel::run_all_at(SimTime t) {
  while (next_time() == t) run_next();
}

void Kernel::set_bucket_hint(SimTime lookahead) {
  if (lookahead == 0 || lookahead >= (SimTime{1} << 62)) return;
  std::uint32_t shift = 0;
  SimTime span = static_cast<SimTime>(kBuckets);
  while (shift < 40 && span < 2 * lookahead) {
    ++shift;
    span <<= 1;
  }
  if (live_ == 0) {
    shift_ = shift;
    base_ = (now_ >> shift_) << shift_;
    pending_shift_plus1_ = 0;
  } else {
    pending_shift_plus1_ = shift + 1;
  }
}

}  // namespace splitsim::des
