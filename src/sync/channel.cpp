#include "sync/channel.hpp"

#include <stdexcept>

#include "sync/digest.hpp"
#include "sync/wait.hpp"
#include "util/cycles.hpp"

namespace splitsim::sync {

namespace {

/// MessageRing indexes slots through the mask `capacity - 1`: any other
/// capacity silently overwrites unconsumed messages, and 0 reports every
/// push as full. Checked in every build, not only where asserts are on.
std::size_t checked_ring_capacity(const std::string& channel, std::size_t capacity) {
  if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
    throw std::invalid_argument("channel '" + channel + "': ring_capacity " +
                                std::to_string(capacity) + " is not a power of two >= 2");
  }
  return capacity;
}

}  // namespace

Channel::Channel(std::string name, ChannelConfig cfg)
    : name_(std::move(name)), cfg_(cfg),
      transport_(
          std::make_unique<InProcTransport>(checked_ring_capacity(name_, cfg.ring_capacity))) {
  // Latency is the lookahead: at 0 the sync interval is 0 too, which
  // Adapter::next_sync_due divides by, and no horizon ever advances.
  if (cfg.latency == 0) {
    throw std::invalid_argument("channel '" + name_ + "': latency must be at least 1 ps");
  }
  end_a_.channel_ = this;
  end_a_.peer_ = &end_b_;
  end_a_.tx_spill_ = &a_spill_;
  end_a_.rx_spill_ = &b_spill_;
  end_a_.tx_spill_count_ = &a_spill_count_;
  end_a_.rx_spill_count_ = &b_spill_count_;
  end_b_.channel_ = this;
  end_b_.peer_ = &end_a_;
  end_b_.tx_spill_ = &b_spill_;
  end_b_.rx_spill_ = &a_spill_;
  end_b_.tx_spill_count_ = &b_spill_count_;
  end_b_.rx_spill_count_ = &a_spill_count_;
  for (ChannelEnd* e : {&end_a_, &end_b_}) {
    e->latency_ = cfg.latency;
    e->horizon_ = cfg.latency - 1;  // nothing received yet
  }
  rewire();
}

void Channel::rewire() {
  end_a_.tx_ = transport_->tx_ring(0);
  end_a_.rx_ = transport_->rx_ring(0);
  end_b_.tx_ = transport_->tx_ring(1);
  end_b_.rx_ = transport_->rx_ring(1);
  end_a_.transport_ = transport_.get();
  end_b_.transport_ = transport_.get();
  end_a_.side_ = 0;
  end_b_.side_ = 1;
  end_a_.direct_send_ = transport_->sends_direct(0);
  end_b_.direct_send_ = transport_->sends_direct(1);
  end_a_.wire_ = transport_->wire_counters();
  end_b_.wire_ = transport_->wire_counters();
  if (transport_->forces_blocking()) mode_ = ChannelMode::kBlocking;
}

void Channel::set_transport(std::unique_ptr<Transport> t) {
  assert(t != nullptr);
  transport_ = std::move(t);
  rewire();
}

const std::string& ChannelEnd::channel_name() const { return channel_->name_; }

bool ChannelEnd::push_with_backpressure(const Message& msg, std::uint64_t& spin_cycles) {
  switch (channel_->mode_) {
    case ChannelMode::kSpillSingleThread:
      // Producer and consumer share a thread: blocking would deadlock, so we
      // overflow into an unbounded spill queue. Ordering: once spilling, keep
      // spilling until the consumer (same thread) has drained the spill.
      if (!tx_spill_->empty() || !tx_->try_push(msg)) {
        tx_spill_->push_back(msg);
        // Count maintained even without the lock protocol so the obs
        // reporter can read spill depth without touching the deque.
        tx_spill_count_->fetch_add(1, std::memory_order_relaxed);
        tx_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;

    case ChannelMode::kSpillLocked: {
      // Pooled runs: never block a worker on ring space. FIFO is preserved
      // by the invariant that every ring message is older than every spill
      // message: we only push to the ring after observing an empty spill
      // (acquire on the count pairs with the consumer's release decrement,
      // so all older spilled messages were already consumed).
      if (tx_spill_count_->load(std::memory_order_acquire) == 0 && tx_->try_push(msg)) {
        return true;
      }
      {
        std::lock_guard<std::mutex> g(channel_->spill_mu_);
        tx_spill_->push_back(msg);
      }
      tx_spill_count_->fetch_add(1, std::memory_order_release);
      tx_stalls_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }

    case ChannelMode::kBlocking:
      break;
  }
  if (direct_send_) {
    // Socket-style transport: the frame write itself blocks on the kernel
    // buffer, so that *is* the backpressure. Throws TransportError when the
    // peer is gone; the runner attributes it as a transport failure.
    transport_->send_direct(side_, msg);
    return true;
  }
  if (tx_->try_push(msg)) return true;
  tx_stalls_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t start = rdcycles();
  WaitState wait;
  while (!tx_->try_push(msg)) {
    // If the run is aborting, the consumer may already be gone — waiting for
    // ring space would hang this thread forever.
    if (channel_->abort_ != nullptr && channel_->abort_->load(std::memory_order_relaxed)) {
      throw AbortedError(channel_->name_);
    }
    // Heap rings: adaptive spin/yield/park. Shm rings: futex-park on the
    // segment so a cross-process producer sleeps until the consumer pops.
    tx_->producer_wait_step(wait);
  }
  spin_cycles += rdcycles() - start;
  return true;
}

std::uint64_t ChannelEnd::send(const Message& msg) {
  if (msg.is_sync() || msg.is_fin()) {
    return send_control(static_cast<MsgType>(msg.type), msg.timestamp);
  }
  // Data messages carry strictly increasing timestamps: that is what makes
  // the receive horizon (last_recv + latency) safe to advance to
  // *inclusively*. The 1 ps bump for same-time data is far below any
  // modeled latency. Only a bumped message is copied.
  if (data_sends_ != 0 && msg.timestamp <= last_data_sent_) {
    Message bumped = msg;
    bumped.timestamp = last_data_sent_ + 1;
    return send_data(bumped);
  }
  return send_data(msg);
}

std::uint64_t ChannelEnd::send_data(const Message& msg) {
  // Promise discipline (nulls are emitted only while every pending local
  // action lies strictly beyond the promise) keeps data ahead of the
  // wire timestamp; the receiver's inclusive horizon depends on it.
  if (sent_anything_ && msg.timestamp <= last_sent_) {
    throw SyncViolation(channel_->name_, "data timestamp " + std::to_string(msg.timestamp) +
                                             " ps is not above the last promise " +
                                             std::to_string(last_sent_) + " ps");
  }
  last_data_sent_ = msg.timestamp;
  ++data_sends_;
  if (ckpt_window_enabled_) {
    ckpt_window_.push_back({msg.timestamp, hash_event(ckpt_channel_hash_, msg)});
  }
  last_sent_ = msg.timestamp;
  sent_anything_ = true;
  std::uint64_t spin = 0;
  push_with_backpressure(msg, spin);
  if (wire_ != nullptr) count_wire(msg);
  return spin;
}

std::uint64_t ChannelEnd::send_control(MsgType type, SimTime ts) {
  // SYNC/FIN only move the horizon, so they may *tie* with the current
  // wire timestamp instead of bumping past it: a bumped sync would fold the
  // wall-clock-dependent placement of null messages into last_sent_ and
  // from there into later data timestamps, breaking cross-mode
  // determinism. With the tie rule, data bumps depend only on earlier
  // data, which is identical in every run mode.
  if (sent_anything_ && ts < last_sent_) ts = last_sent_;
  last_sent_ = ts;
  sent_anything_ = true;
  if (type == MsgType::kSync && channel_->mode_ == ChannelMode::kSpillSingleThread &&
      wire_ == nullptr && !direct_send_) {
    // Same thread on both ends: the peer would pop this SYNC only to apply
    // note_recv. Applying it now gives every later poll the same horizon —
    // while older data is pending, the peer bounds on that data, not on
    // the horizon.
    peer_->note_recv(ts, false);
    return 0;
  }
  const Message msg(ts, static_cast<std::uint16_t>(type));
  std::uint64_t spin = 0;
  push_with_backpressure(msg, spin);
  if (wire_ != nullptr) count_wire(msg);
  if (type == MsgType::kFin) fin_sent_.store(true, std::memory_order_relaxed);
  return spin;
}

void ChannelEnd::count_wire(const Message& msg) {
  // This end is the only writer of its side's slot: a relaxed load+store,
  // no read-modify-write. Inproc channels never get here.
  std::atomic<std::uint64_t>& bytes = wire_->tx_bytes[side_];
  bytes.store(bytes.load(std::memory_order_relaxed) +
                  (wire_->fixed_frame_bytes != 0 ? wire_->fixed_frame_bytes
                                                 : wire_->frame_overhead + msg.size),
              std::memory_order_relaxed);
}

void ChannelEnd::enable_ckpt_window() {
  ckpt_window_enabled_ = true;
  ckpt_channel_hash_ = fnv1a(channel_->name_);
}

ChannelEnd::InflightSummary ChannelEnd::inflight_at(SimTime boundary) {
  // Entries at or before the boundary are already delivered (they are in
  // the peer's digest); boundaries are queried in non-decreasing order, so
  // they can go for good. What remains is timestamp-sorted (data-send
  // monotonicity), so the in-flight range is a prefix.
  while (!ckpt_window_.empty() && ckpt_window_.front().ts <= boundary) {
    ckpt_window_.pop_front();
  }
  InflightSummary s;
  const SimTime limit = boundary + config().latency;
  for (const CkptSend& e : ckpt_window_) {
    if (e.ts > limit) break;
    s.fold ^= e.hash;
    ++s.count;
  }
  return s;
}

const Message* ChannelEnd::spill_front(bool& from_spill) {
  switch (channel_->mode_) {
    case ChannelMode::kSpillSingleThread:
      if (!rx_spill_->empty()) {
        from_spill = true;
        return &rx_spill_->front();
      }
      return nullptr;
    case ChannelMode::kSpillLocked: {
      if (rx_spill_count_->load(std::memory_order_acquire) == 0) return nullptr;
      std::lock_guard<std::mutex> g(channel_->spill_mu_);
      if (rx_spill_->empty()) return nullptr;
      from_spill = true;
      // Safe to use after unlocking: deque references are stable under
      // push_back, and only this consumer ever pops.
      return &rx_spill_->front();
    }
    case ChannelMode::kBlocking:
      return nullptr;
  }
  return nullptr;
}

void ChannelEnd::spill_pop() {
  if (channel_->mode_ == ChannelMode::kSpillLocked) {
    {
      std::lock_guard<std::mutex> g(channel_->spill_mu_);
      rx_spill_->pop_front();
    }
    rx_spill_count_->fetch_sub(1, std::memory_order_release);
  } else {
    rx_spill_->pop_front();
    rx_spill_count_->fetch_sub(1, std::memory_order_relaxed);
  }
}

const Message* ChannelEnd::peek_pending() {
  for (;;) {
    const Message* m = rx_->front();
    bool from_spill = false;
    if (m == nullptr) {
      m = spill_front(from_spill);
      if (from_spill) {
        // The spill-count acquire synchronized with the producer's release,
        // so ring pushes that preceded the spill are visible now even if the
        // front() above raced with them. Any ring message predates every
        // spilled one (the producer only pushes the ring after observing an
        // empty spill), so the ring must win to preserve FIFO.
        const Message* r = rx_->front();
        if (r != nullptr) {
          m = r;
          from_spill = false;
        }
      }
    }
    if (m == nullptr) return nullptr;
    note_recv(*m);
    if (m->is_sync() || m->is_fin()) {
      if (from_spill) {
        spill_pop();
      } else {
        rx_->pop();
      }
      continue;  // syncs only move the horizon
    }
    peeked_from_spill_ = from_spill;
    return m;
  }
}

void ChannelEnd::consume() {
  if (peeked_from_spill_) {
    spill_pop();
    peeked_from_spill_ = false;
  } else {
    rx_->pop();
  }
}

}  // namespace splitsim::sync
