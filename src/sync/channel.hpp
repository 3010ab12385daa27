// SplitSim channels: timestamped, latency-synchronized SPSC message links.
//
// Semantics (inherited from SimBricks):
//   * A message sent at sender simulation time `t` on a channel with latency
//     `L` is processed by the receiver at `t + L`.
//   * Senders emit data messages with strictly increasing timestamps
//     (enforced here by bumping colliding timestamps by 1 ps) and send a
//     SYNC message at least every `sync_interval` of simulation time.
//     SYNCs may tie with the current wire timestamp: they only advance the
//     horizon, and bumping them would leak wall-clock-dependent null-
//     message placement into data timestamps (see ChannelEnd::send).
//   * A receiver may therefore safely advance its local clock to
//     `last_received_timestamp + L`: nothing can arrive earlier.
// This is conservative null-message synchronization with lookahead = link
// latency; parallel execution produces the same simulation results as
// sequential execution.
//
// A channel operates in one of three modes:
//   * kSpillSingleThread (coscheduled runs): producer and consumer share one
//     thread, so blocking would deadlock; a full ring overflows into an
//     unbounded spill queue with no locking.
//   * kSpillLocked (pooled and threaded runs): components share a worker
//     pool, so a producer must never hold its worker hostage waiting for a
//     consumer that has no worker to run on (or has finished and will never
//     drain its rings). A full ring overflows into a mutex-protected spill
//     queue instead; the common non-full path stays lock-free SPSC.
//   * kBlocking: forced by a cross-process transport (shm, socket); spill
//     queues are address-space-local. A producer that finds the ring full
//     waits (adaptive spin/yield/park, or the transport's backpressure)
//     until the consumer drains it, so the worker pool gives each component
//     a worker of its own (threaded runs; runtime/pooled.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sync/message.hpp"
#include "sync/spsc_ring.hpp"
#include "sync/transport.hpp"
#include "util/time.hpp"

namespace splitsim::sync {

struct ChannelConfig {
  /// Propagation latency, >= 1 ps; also the synchronization lookahead.
  SimTime latency = 500 * timeunit::ns;
  /// Max simulated-time gap between consecutive messages; 0 means "use the
  /// latency" (the largest value that still guarantees progress).
  SimTime sync_interval = 0;
  /// Ring capacity in 256-byte slots: a power of two >= 2 (the Channel
  /// constructor throws std::invalid_argument otherwise).
  std::size_t ring_capacity = 512;

  SimTime effective_sync_interval() const {
    SimTime si = sync_interval == 0 ? latency : sync_interval;
    return si < latency ? si : latency;
  }
};

/// How a full transmit ring is handled (see file comment).
enum class ChannelMode {
  kBlocking,           ///< cross-process transport: wait for ring space
  kSpillSingleThread,  ///< coscheduled: unbounded spill, no locking
  kSpillLocked,        ///< pooled and threaded: unbounded spill behind a mutex
};

/// Thrown out of a blocking send when the run's abort flag trips: the
/// consumer of this ring has failed and will never drain it, so waiting for
/// ring space would hang forever. The runner treats this as a *secondary*
/// failure — it unwinds the sending thread without overwriting the original
/// error that tripped the abort.
class AbortedError : public std::runtime_error {
 public:
  explicit AbortedError(const std::string& channel)
      : std::runtime_error("send on channel '" + channel + "' aborted: run is failing") {}
};

/// A conservative-synchronization promise was broken on a channel: a data
/// message timestamped at or below a SYNC its sender already emitted, or a
/// message delivered after the batch at its receive time had passed.
/// Checked in every build — an assert vanishes under NDEBUG and leaves the
/// receiver scheduling into the past. The runner reports it as
/// SimulationError(kSyncViolation) naming the executing component.
class SyncViolation : public std::runtime_error {
 public:
  SyncViolation(const std::string& channel, const std::string& what)
      : std::runtime_error("channel '" + channel + "': " + what) {}
};

class Channel;

/// One endpoint of a channel: produces into one ring, consumes the other.
/// Not thread-safe per endpoint — exactly one component owns each end.
class ChannelEnd {
 public:
  const ChannelConfig& config() const;
  const std::string& channel_name() const;
  Channel& channel() { return *channel_; }

  // ---- producer side -------------------------------------------------
  /// Send `msg`; data timestamps are bumped to stay strictly increasing,
  /// SYNC/FIN go through send_control. Blocks (kBlocking mode) or grows the
  /// spill queue (spill modes) when the ring is full. Returns cycles spent
  /// on backpressure. Throws SyncViolation for data at or below the last
  /// wire timestamp.
  std::uint64_t send(const Message& msg);

  /// Send a payload-free SYNC or FIN at `ts`, clamped up to the wire
  /// timestamp (ties allowed). Only the 16-byte header is built and queued.
  /// In a coscheduled run over an in-process transport both ends run on
  /// one thread, so a SYNC skips the ring: it moves the peer end's receive
  /// state directly, by the rule a received SYNC applies (note_recv).
  /// Returns cycles spent on backpressure.
  std::uint64_t send_control(MsgType type, SimTime ts);

  /// Highest timestamp sent so far on the wire (data or sync).
  SimTime last_sent() const { return last_sent_; }

  /// True if a sync with timestamp `ts` would advance the peer's horizon.
  bool can_promise(SimTime ts) const { return !sent_anything_ || ts > last_sent_; }

  bool has_sent() const { return sent_anything_; }

  /// Data messages sent so far (SYNC/FIN excluded). Only data lowers the
  /// peer's next action, so a runner that sees this unchanged knows the
  /// peer's scheduling state did not move (runtime/runner.cpp).
  std::uint64_t data_sends() const { return data_sends_; }

  /// True once this end's FIN is on the wire. Atomic (relaxed) so the obs
  /// reporter may read it live; only the producer writes it.
  bool fin_sent() const { return fin_sent_.load(std::memory_order_relaxed); }

  // ---- checkpointing --------------------------------------------------
  /// Enable the sender-side in-flight window: every data send is recorded
  /// as (wire timestamp, event hash) so inflight_at() can summarize the
  /// messages in flight at a checkpoint boundary. Off by default — the send
  /// fast path pays nothing unless a run checkpoints.
  void enable_ckpt_window();

  /// Order-insensitive summary of the data messages in flight at `boundary`
  /// B: sent by a batch at time <= B but received after B (wire timestamp
  /// in (B, B+latency]). Only valid when called with non-decreasing
  /// boundaries from the owning component at a point where no batch at time
  /// <= B can still send (the checkpoint hook point): entries at or before
  /// B are evicted permanently.
  struct InflightSummary {
    std::uint64_t fold = 0;
    std::uint64_t count = 0;
  };
  InflightSummary inflight_at(SimTime boundary);

  // ---- consumer side -------------------------------------------------
  /// Oldest pending *data* message, or nullptr. Pure sync messages are
  /// consumed internally (they only advance the horizon). The pointer stays
  /// valid until consume(). An idle end (empty ring, no spilled messages)
  /// answers inline: the runner polls every end after every batch.
  const Message* peek() {
    if (rx_->front() == nullptr && rx_spill_count_->load(std::memory_order_acquire) == 0) {
      return nullptr;
    }
    return peek_pending();
  }

  /// Discard the message returned by peek().
  void consume();

  /// Highest timestamp received so far (data or sync).
  SimTime last_recv() const { return last_recv_; }

  /// Peer promised to terminate: horizon is unbounded. Atomic (relaxed)
  /// only so the process runner's peer-death monitor may read it from
  /// another thread; the consumer thread is the sole writer.
  bool fin_received() const { return fin_received_.load(std::memory_order_relaxed); }

  /// Batched drain: process every pending message whose wire timestamp is
  /// <= `wire_limit` in one ring traversal — a single atomic acquire per
  /// batch (and, in kSpillLocked mode, a single mutex acquisition per
  /// batch) instead of one per message. Sync/FIN messages are consumed
  /// internally regardless of `wire_limit` (they only advance the horizon,
  /// exactly as peek() would); `on_data(const Message&)` is invoked for
  /// each data message in FIFO order. A data message beyond the limit stops
  /// the drain (everything behind it is even newer). Returns the number of
  /// data messages delivered.
  template <typename F>
  std::size_t drain_until(SimTime wire_limit, F&& on_data);

  /// Drain and drop everything pending (a finished component's drain: a
  /// peer blocked on a full kBlocking ring can then finish too).
  std::size_t discard_all();

  // ---- observability (safe to read from the obs reporter thread) -----
  /// Approximate receive-ring occupancy (atomic head/tail difference).
  std::size_t rx_ring_depth() const { return rx_->size(); }
  /// Messages currently parked in the peer's spill queue (spill modes).
  std::size_t rx_spill_depth() const {
    return rx_spill_count_->load(std::memory_order_relaxed);
  }
  /// Sends that found the ring full (then blocked or spilled). Maintained
  /// off the fast path only, read by the metrics reporter.
  std::uint64_t tx_backpressure_stalls() const {
    return tx_stalls_.load(std::memory_order_relaxed);
  }

  /// Time up to which (inclusive) the local simulator may safely advance:
  /// last_recv() + latency, unbounded after FIN. Before the first message
  /// the peer may still send data stamped 0, received at exactly the
  /// latency, so only earlier times are safe. Kept up to date on receive,
  /// because every runner poll reads it.
  SimTime horizon() const { return horizon_; }

  /// Byte/futex counters of a cross-process transport, or nullptr
  /// (sync/transport.hpp); tx_bytes[side()] holds this end's sent bytes.
  const WireCounters* wire_counters() const { return wire_; }
  int side() const { return side_; }

  /// The channel's configured sync interval
  /// (ChannelConfig::effective_sync_interval).
  SimTime effective_sync_interval() const { return config().effective_sync_interval(); }

 private:
  friend class Channel;
  ChannelEnd() = default;

  std::uint64_t send_data(const Message& msg);
  bool push_with_backpressure(const Message& msg, std::uint64_t& spin_cycles);
  /// Cross-process transport: count the bytes of the frame just sent.
  void count_wire(const Message& msg);
  /// peek() once the ring or the spill queue may hold a message.
  const Message* peek_pending();
  const Message* spill_front(bool& from_spill);
  void spill_pop();
  /// Account a received message (data, SYNC or FIN) in the horizon state.
  void note_recv(const Message& m) { note_recv(m.timestamp, m.is_fin()); }
  void note_recv(SimTime ts, bool fin) {
    if (ts > last_recv_) last_recv_ = ts;
    if (fin) {
      fin_received_ = true;
      horizon_ = kSimTimeMax;
    } else if (horizon_ != kSimTimeMax) {
      SimTime h = last_recv_ + latency_;
      horizon_ = h < last_recv_ ? kSimTimeMax : h;  // overflow guard
    }
  }

  Channel* channel_ = nullptr;
  ChannelEnd* peer_ = nullptr;  ///< the other end of the channel
  MessageRing* tx_ = nullptr;  ///< null when the transport sends direct
  MessageRing* rx_ = nullptr;
  Transport* transport_ = nullptr;  ///< rewired by Channel::set_transport
  int side_ = 0;                    ///< 0 = end_a, 1 = end_b
  bool direct_send_ = false;        ///< transport_->sends_direct(side_)
  WireCounters* wire_ = nullptr;    ///< transport_->wire_counters() (cached)
  std::deque<Message>* tx_spill_ = nullptr;  ///< overflow for our sends
  std::deque<Message>* rx_spill_ = nullptr;  ///< peer's overflow (we consume)
  std::atomic<std::size_t>* tx_spill_count_ = nullptr;
  std::atomic<std::size_t>* rx_spill_count_ = nullptr;
  SimTime last_sent_ = 0;       ///< wire timestamp: data + sync + fin
  SimTime last_data_sent_ = 0;  ///< data only; drives the monotonicity bump
  std::uint64_t data_sends_ = 0;  ///< see data_sends()
  SimTime last_recv_ = 0;
  SimTime latency_ = 0;  ///< channel latency (immutable after construction)
  SimTime horizon_ = 0;  ///< see horizon(); maintained by note_recv
  std::atomic<bool> fin_received_{false};  ///< see fin_received()
  std::atomic<bool> fin_sent_{false};      ///< see fin_sent()
  bool sent_anything_ = false;
  bool peeked_from_spill_ = false;
  // Checkpoint in-flight window (enable_ckpt_window): data sends not yet
  // past a queried boundary, kept in wire-timestamp order by the send
  // monotonicity bump. Bounded by the sends of one checkpoint period:
  // inflight_at() evicts everything at or before its boundary.
  struct CkptSend {
    SimTime ts;
    std::uint64_t hash;
  };
  bool ckpt_window_enabled_ = false;
  std::uint64_t ckpt_channel_hash_ = 0;
  std::deque<CkptSend> ckpt_window_;
  /// Full-ring sends; atomic only so the reporter may read it live.
  std::atomic<std::uint64_t> tx_stalls_{0};
  /// Reused batch buffer for spilled messages moved out under the lock in
  /// drain_until (dispatching under spill_mu_ could deadlock: a handler
  /// sending on this channel takes the same mutex).
  std::vector<Message> spill_scratch_;
};

/// A bidirectional SplitSim channel: two rings plus configuration. The
/// rings live behind a pluggable Transport (sync/transport.hpp); the
/// default InProcTransport reproduces the historical both-on-the-heap
/// layout exactly.
class Channel {
 public:
  explicit Channel(std::string name, ChannelConfig cfg = {});

  ChannelEnd& end_a() { return end_a_; }
  ChannelEnd& end_b() { return end_b_; }

  const ChannelConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

  /// Swap the data path. Must happen before any traffic (protocol state in
  /// the ends is not migrated); the orchestration layer swaps transports
  /// between instantiation and run. A transport that forces blocking pins
  /// the mode to kBlocking — later set_mode calls keep it there.
  void set_transport(std::unique_ptr<Transport> t);
  Transport& transport() { return *transport_; }

  void set_mode(ChannelMode m) {
    mode_ = transport_->forces_blocking() ? ChannelMode::kBlocking : m;
  }
  ChannelMode mode() const { return mode_; }

  /// Abort flag checked by blocking sends (kBlocking mode): when it becomes
  /// true mid-wait, the send throws AbortedError instead of waiting forever
  /// for a consumer that may have died. runtime::Simulation points its
  /// channels at the flag of its threaded and pooled runs; nullptr (the
  /// default) restores unconditional blocking.
  void set_abort_flag(const std::atomic<bool>* abort) { abort_ = abort; }

 private:
  friend class ChannelEnd;

  std::string name_;
  ChannelConfig cfg_;
  ChannelMode mode_ = ChannelMode::kBlocking;
  const std::atomic<bool>* abort_ = nullptr;  ///< see set_abort_flag
  std::unique_ptr<Transport> transport_;      ///< owns the rings / data path
  std::deque<Message> a_spill_;
  std::deque<Message> b_spill_;
  // kSpillLocked state: one mutex per channel guards both spill queues; the
  // counts let producers/consumers skip the lock entirely while empty.
  std::mutex spill_mu_;
  std::atomic<std::size_t> a_spill_count_{0};
  std::atomic<std::size_t> b_spill_count_{0};
  ChannelEnd end_a_;
  ChannelEnd end_b_;

  /// Point both ends' ring/direct-send state at the current transport.
  void rewire();
};

inline const ChannelConfig& ChannelEnd::config() const { return channel_->cfg_; }

template <typename F>
std::size_t ChannelEnd::drain_until(SimTime wire_limit, F&& on_data) {
  std::size_t delivered = 0;
  // Ring tier: strictly older than every spilled message. One acquire
  // (ready) establishes the batch; front_unsynchronized/pop then run on
  // consumer-owned state only. Returns true when a data message beyond the
  // limit stops the drain (everything behind it is even newer).
  auto drain_ring = [&]() -> bool {
    std::size_t n = rx_->ready();
    for (std::size_t i = 0; i < n; ++i) {
      const Message& m = rx_->front_unsynchronized();
      note_recv(m);
      if (m.is_sync() || m.is_fin()) {
        rx_->pop();
        continue;
      }
      if (m.timestamp > wire_limit) return true;
      on_data(m);
      rx_->pop();
      ++delivered;
    }
    return false;
  };
  if (drain_ring()) return delivered;

  // ---- spill tier -------------------------------------------------------
  switch (channel_->mode_) {
    case ChannelMode::kBlocking:
      break;

    case ChannelMode::kSpillSingleThread: {
      std::size_t popped = 0;
      while (!rx_spill_->empty()) {
        const Message& front = rx_spill_->front();
        note_recv(front);
        if (front.is_sync() || front.is_fin()) {
          rx_spill_->pop_front();
          ++popped;
          continue;
        }
        if (front.timestamp > wire_limit) break;
        // Copy out before dispatching so a handler that sends (and spills)
        // on this channel cannot touch the message mid-dispatch.
        Message m = front;
        rx_spill_->pop_front();
        ++popped;
        on_data(m);
        ++delivered;
      }
      if (popped != 0) rx_spill_count_->fetch_sub(popped, std::memory_order_relaxed);
      break;
    }

    case ChannelMode::kSpillLocked: {
      if (rx_spill_count_->load(std::memory_order_acquire) == 0) break;
      // That acquire synchronized with the producer's release: ring pushes
      // that preceded the spill are visible now even if the first ring pass
      // raced with them, and they predate everything spilled (the producer
      // only pushes the ring after observing an empty spill). Re-drain the
      // ring before touching the spill so FIFO order holds.
      if (drain_ring()) return delivered;
      spill_scratch_.clear();
      std::size_t popped = 0;
      {
        std::lock_guard<std::mutex> g(channel_->spill_mu_);
        while (!rx_spill_->empty()) {
          const Message& m = rx_spill_->front();
          note_recv(m);
          if (!m.is_sync() && !m.is_fin()) {
            if (m.timestamp > wire_limit) break;
            spill_scratch_.push_back(m);
          }
          rx_spill_->pop_front();
          ++popped;
        }
      }
      // Only the delivered prefix was popped, so the producer's
      // ring-vs-spill FIFO invariant holds: the count stays nonzero while
      // older spilled messages remain.
      if (popped != 0) rx_spill_count_->fetch_sub(popped, std::memory_order_release);
      for (const Message& m : spill_scratch_) {
        on_data(m);
        ++delivered;
      }
      break;
    }
  }
  return delivered;
}

inline std::size_t ChannelEnd::discard_all() {
  return drain_until(kSimTimeMax, [](const Message&) {});
}

}  // namespace splitsim::sync
