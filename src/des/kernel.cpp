#include "des/kernel.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace splitsim::des {

namespace {

/// a runs after b in (time, seq) order; compares heap entries and nodes.
struct Later {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

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
  if (live_ == 0) {
    // Empty queue: rebase the window on this event so sparse schedules
    // (periodic polls far apart) stay in the O(1) bucket tier. Any heap
    // entries left are stale.
    heap_.clear();
    heap_stale_ = 0;
    if (pending_shift_plus1_ != 0) {
      shift_ = pending_shift_plus1_ - 1;
      pending_shift_plus1_ = 0;
    }
    base_ = (t >> shift_) << shift_;
  }
  ++live_;
  if (t < next_cache_) next_cache_ = t;
  if (in_window(t)) {
    bucket_insert(slot(t), ni);
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

void Kernel::bucket_insert(std::size_t b, std::uint32_t ni) {
  Bucket& bk = buckets_[b];
  Node& n = node(ni);
  n.loc = Loc::kBucket;
  ++bucketed_;
  // Walk from the tail to the last node with time <= n.time. Direct
  // inserts carry the newest seq, and heap migrations reach a range before
  // any direct insert can, so inserting there preserves (time, seq) order;
  // the walk terminates immediately in the common in-order case.
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
  --bucketed_;
  if (bk.head == kNil) occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

void Kernel::heap_push(HeapEntry e) {
  ++heap_pushes_;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Kernel::heap_pop() const {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool Kernel::heap_top_live() const {
  const HeapEntry& e = heap_.front();
  if (node(e.idx).gen == e.gen) return true;
  heap_pop();
  if (heap_stale_ != 0) --heap_stale_;
  return false;
}

void Kernel::compact_heap() {
  // Drop every stale entry and re-heapify; amortized O(1) per cancellation
  // since at least half the entries are stale when this triggers.
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (node(e.idx).gen == e.gen) heap_[kept++] = e;
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  heap_stale_ = 0;
}

void Kernel::slide() {
  if (pending_shift_plus1_ != 0 && bucketed_ == 0) {
    shift_ = pending_shift_plus1_ - 1;
    pending_shift_plus1_ = 0;
  }
  base_ = (now_ >> shift_) << shift_;
  // Every live event is at or after now_, so the heap entries the window
  // now covers sit at its top; pops come in (time, seq) order, and none of
  // the buckets they land in has had a direct insert for this range yet.
  while (!heap_.empty() && in_window(heap_.front().time)) {
    if (!heap_top_live()) continue;
    const std::uint32_t idx = heap_.front().idx;
    heap_pop();
    bucket_insert(slot(node(idx).time), idx);
  }
}

void Kernel::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  std::uint32_t ni = static_cast<std::uint32_t>(id >> 32);
  std::uint32_t gen = static_cast<std::uint32_t>(id);
  if (ni >= node_count_) return;
  Node& n = node(ni);
  if (n.gen != gen) return;  // already executed or cancelled (node may be reused)
  if (n.loc == Loc::kBucket) {
    // shift_ only changes while the calendar is empty, so the node's
    // bucket is still its time's slot.
    bucket_unlink(slot(n.time), ni);
  } else if (n.loc == Loc::kHeap) {
    // The heap entry goes stale and is dropped when it reaches the top or
    // at compaction; the callback and node are reclaimed right now. The
    // compaction keeps heap memory bounded under schedule/cancel churn in
    // the far-future tier.
    if (++heap_stale_ > 64 && heap_stale_ * 2 > heap_.size()) compact_heap();
  } else {
    return;  // kExecuting: the running event cannot cancel itself
  }
  if (n.time <= next_cache_) next_valid_ = false;
  n.cb.destroy();
  free_node(ni);
  --live_;
  ++cancelled_;
}

std::size_t Kernel::head_bucket() const {
  // Scan the bitmap in window order: from the base's slot to the end, then
  // wrap around to the slots below it.
  const std::size_t s = slot(base_);
  const std::size_t w0 = s / 64;
  std::uint64_t bits = occupied_[w0] & (~std::uint64_t{0} << (s % 64));
  if (bits != 0) return w0 * 64 + std::countr_zero(bits);
  for (std::size_t i = 1; i < kOccupancyWords; ++i) {
    const std::size_t w = (w0 + i) % kOccupancyWords;
    if (occupied_[w] != 0) return w * 64 + std::countr_zero(occupied_[w]);
  }
  return w0 * 64 + std::countr_zero(occupied_[w0]);
}

Kernel::Head Kernel::head() const {
  const std::uint32_t ni = bucketed_ != 0 ? buckets_[head_bucket()].head : kNil;
  // Order first, liveness second: a stale top that sorts after the bucket
  // head can wait, and checking it would touch its slab node.
  while (!heap_.empty() && (ni == kNil || Later{}(node(ni), heap_.front()))) {
    if (heap_top_live()) return {heap_.front().idx, true};
  }
  return {ni, false};
}

SimTime Kernel::next_time_slow() const {
  next_cache_ = live_ == 0 ? kSimTimeMax : node(head().ni).time;
  next_valid_ = true;
  return next_cache_;
}

void Kernel::run_head(Head h) {
  const std::uint32_t ni = h.ni;
  Node& n = node(ni);
  if (h.from_heap) {
    heap_pop();
  } else {
    bucket_unlink(slot(n.time), ni);
  }
  n.loc = Loc::kExecuting;
  next_valid_ = false;
  now_ = n.time;
  ++executed_;
  --live_;
  // The clock passed the next bucket edge: slide before the callback can
  // schedule into the range the window gains.
  if (now_ > base_ && ((now_ - base_) >> shift_) != 0) slide();
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

void Kernel::run_next() {
  // This check, rather than comparing next_time() to kSimTimeMax, keeps an
  // event scheduled at kSimTimeMax itself runnable, exactly like the
  // reference kernel.
  if (live_ == 0) throw std::logic_error("Kernel::run_next: empty queue");
  run_head(head());
}

void Kernel::run_all_at(SimTime t) {
  while (next_time() == t) run_next();
}

void Kernel::run_until(SimTime t) {
  if (next_valid_ && next_cache_ > t) return;
  while (live_ != 0) {
    const Head h = head();
    if (node(h.ni).time > t) return;
    run_head(h);
  }
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
