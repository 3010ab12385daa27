// SplitSim base adapter (paper §3.2.1, "Base adapter").
//
// An adapter is a component simulator's attachment to one SplitSim channel.
// It owns initialization, synchronization (periodic SYNCs, null messages
// while blocked, FIN at termination) and profiling instrumentation, but is
// not specific to any message protocol: protocol adapters (Ethernet, PCI,
// memory port, trunk, ...) are built on top by choosing message types and
// handlers, without re-implementing the common machinery.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "sync/channel.hpp"
#include "sync/counters.hpp"
#include "sync/digest.hpp"
#include "sync/fault.hpp"
#include "util/cycles.hpp"
#include "util/time.hpp"

namespace splitsim::sync {

class Adapter {
 public:
  /// Invoked for each incoming data message at its receive time.
  using Handler = std::function<void(const Message&, SimTime rx_time)>;

  Adapter(std::string name, ChannelEnd& end)
      : name_(std::move(name)), end_(&end), due_(end.effective_sync_interval()) {}
  virtual ~Adapter() = default;

  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }

  const std::string& name() const { return name_; }
  ChannelEnd& end() { return *end_; }
  const ChannelConfig& config() const { return end_->config(); }

  /// Name of the component on the other side (filled in by the runtime for
  /// profiler output).
  const std::string& peer_component() const { return peer_component_; }
  void set_peer_component(std::string p) { peer_component_ = std::move(p); }

  // ---- receive side --------------------------------------------------

  /// One reading of the receive side (see rx_peek()).
  struct RxPeek {
    /// Local events with time <= bound are safe to execute: the pending
    /// head's receive time, or the channel horizon when nothing is pending.
    SimTime bound;
    /// Receive time of the oldest pending data message, or kSimTimeMax.
    SimTime head;
  };

  /// Read bound and head with a single peek(), so the two agree even while
  /// the peer keeps sending.
  RxPeek rx_peek() {
    const Message* m = end_->peek();
    if (m == nullptr) return {end_->horizon(), kSimTimeMax};
    SimTime rx = m->timestamp + config().latency;
    return {rx, rx};
  }

  /// Deliver the oldest pending message if its receive time is <= `now`.
  /// Returns true if a message was delivered.
  bool deliver_one(SimTime now) {
    const Message* m = end_->peek();
    if (m == nullptr || m->timestamp + config().latency > now) return false;
    std::uint64_t c0 = rdcycles();
    digest_.add(hash_event(channel_hash(), *m));
    if (obs::tracing_enabled()) {
      obs::record_flow(false, trace_track_, m->timestamp + config().latency,
                       obs::flow_id(channel_hash(), m->timestamp));
    }
    dispatch(*m, m->timestamp + config().latency);
    end_->consume();
    counters_.rx_msgs++;
    counters_.rx_cycles += rdcycles() - c0;
    return true;
  }

  /// Deliver every pending message with receive time <= `now` in one
  /// batched ring/spill traversal (single atomic acquire per batch; see
  /// ChannelEnd::drain_until). Per-message semantics — digest fold,
  /// dispatch at timestamp + latency, FIFO order — match deliver_one().
  /// `now` is the batch time: a message whose receive time lies below it
  /// missed its own batch, so a promise was broken — throws SyncViolation.
  /// Returns the number of messages delivered. The TSC is read only once a
  /// data message arrives: most batches deliver nothing.
  std::size_t deliver_all(SimTime now) {
    SimTime lat = config().latency;
    if (now < lat) return 0;  // nothing can have a receive time <= now yet
    std::uint64_t c0 = 0;
    std::uint64_t ch = channel_hash();
    std::size_t n = end_->drain_until(now - lat, [&](const Message& m) {
      if (c0 == 0) c0 = rdcycles();
      if (m.timestamp + lat < now) {
        throw SyncViolation(end_->channel_name(),
                            "message with receive time " + std::to_string(m.timestamp + lat) +
                                " ps arrived after the batch at that time; delivered at " +
                                std::to_string(now) + " ps");
      }
      digest_.add(hash_event(ch, m));
      if (obs::tracing_enabled()) {
        obs::record_flow(false, trace_track_, m.timestamp + lat, obs::flow_id(ch, m.timestamp));
      }
      dispatch(m, m.timestamp + lat);
    });
    if (n != 0) {
      const std::uint64_t c1 = rdcycles();
      counters_.rx_msgs += n;
      counters_.rx_cycles += c1 - c0;
      if (obs::tracing_enabled()) obs::record_span(obs::kNameDeliver, trace_track_, now, c0, c1, n);
    }
    return n;
  }

  /// Order-insensitive fold of every data message delivered through this
  /// adapter; identical across run modes for a deterministic simulation.
  const EventDigest& digest() const { return digest_; }

  // ---- send side -----------------------------------------------------

  /// Simulation time at which the next periodic SYNC must be emitted.
  /// Due times snap to the global `interval` grid: peers with equal
  /// intervals emit syncs at the same instants, so a component with many
  /// channels (e.g., a memory process serving dozens of cores) handles one
  /// batched sync round per window instead of one batch per peer. Every
  /// poll asks, so the result is cached until last_sent changes.
  SimTime next_sync_due() const {
    if (!end_->has_sent()) return 0;
    const SimTime last = end_->last_sent();
    if (last != due_last_sent_) {
      const SimTime interval = end_->effective_sync_interval();
      due_last_sent_ = last;
      due_ = (last / interval + 1) * interval;
    }
    return due_;
  }

  /// Emit a periodic SYNC if due at `now`.
  void maybe_sync(SimTime now) {
    if (next_sync_due() <= now) send_sync(now);
  }

  void send_sync(SimTime ts) {
    counters_.tx_cycles += end_->send_control(MsgType::kSync, ts);
    bump_live(counters_.tx_syncs);
  }

  /// Null message while blocked: promises we send nothing before `promise`.
  /// No-op unless it would actually advance the peer's horizon.
  void send_null(SimTime promise) {
    if (!end_->can_promise(promise)) return;
    send_sync(promise);
    counters_.tx_nulls++;
  }

  /// Terminal message: peer's horizon becomes unbounded.
  void send_fin() {
    end_->send_control(MsgType::kFin, end_->has_sent() ? end_->last_sent() + 1 : 0);
  }

  /// Send a data message of `type` with a POD payload at time `now`.
  template <typename T>
  void send(std::uint16_t type, const T& payload, SimTime now, std::uint16_t subchannel = 0) {
    Message m(now, type, subchannel);
    m.store(payload);
    send_msg(m);
  }

  /// Send a payload-free data message.
  void send(std::uint16_t type, SimTime now, std::uint16_t subchannel = 0) {
    send_msg(Message(now, type, subchannel));
  }

  void send_msg(const Message& m) {
    if (fault_ != nullptr) {
      // Decisions are drawn per data message in send order, which is a pure
      // function of the simulation — faulted runs replay across run modes.
      FaultDecision d = fault_->decide();
      if (d.drop) return;
      Message f = m;
      f.timestamp += d.delay;
      if (d.duplicate) send_wire(f);  // copy gets the +1 ps monotonic bump
      send_wire(f);
      return;
    }
    send_wire(m);
  }

  // ---- fault injection -------------------------------------------------

  /// Install deterministic send-side fault injection (sync/fault.hpp). Call
  /// before the run starts; no-op for a configuration with no active fault.
  void enable_fault_injection(const ChannelFaultConfig& cfg, std::uint64_t seed) {
    if (cfg.any()) fault_ = std::make_unique<ChannelFaultInjector>(cfg, seed);
  }

  /// Injector counters, or nullptr when fault injection is not enabled.
  const ChannelFaultInjector* fault_injector() const { return fault_.get(); }

  // ---- profiling -----------------------------------------------------

  ProfCounters& counters() { return counters_; }
  const ProfCounters& counters() const { return counters_; }
  void add_wait_cycles(std::uint64_t c) { counters_.sync_wait_cycles += c; }

  /// This adapter's wire facts, or nullopt over a transport without a wire
  /// (inproc). Frames, SYNCs and data are its own counters; bytes and
  /// futex counts come from the transport. Safe on the obs reporter thread.
  std::optional<WireStats> wire_stats() const {
    const WireCounters* w = end_->wire_counters();
    if (w == nullptr) return std::nullopt;
    constexpr auto r = std::memory_order_relaxed;
    WireStats s;
    s.tx_syncs = load_live(counters_.tx_syncs);
    s.tx_datas = load_live(counters_.tx_msgs);
    s.tx_frames = s.tx_syncs + s.tx_datas + (end_->fin_sent() ? 1 : 0);
    s.tx_bytes = w->tx_bytes[end_->side()].load(r);
    s.futex_parks = w->futex_parks.load(r);
    s.futex_wakes = w->futex_wakes.load(r);
    return s;
  }

  /// Perfetto track (the owning component's) for trace records.
  void set_trace_track(std::uint32_t t) { trace_track_ = t; }
  std::uint32_t trace_track() const { return trace_track_; }

  /// Interned track id of the peer component (wait attribution: sync_wait
  /// spans blocked on this adapter carry it so the trace names the limiter).
  void set_peer_trace_track(std::uint32_t t) { peer_trace_track_ = t; }
  std::uint32_t peer_trace_track() const { return peer_trace_track_; }

 protected:
  /// Protocol adapters override to demultiplex; default calls the handler.
  virtual void dispatch(const Message& m, SimTime rx_time) {
    if (handler_) handler_(m, rx_time);
  }

 private:
  std::uint64_t channel_hash() {
    if (channel_hash_ == 0) channel_hash_ = fnv1a(end_->channel_name());
    return channel_hash_;
  }

  void send_wire(const Message& m) {
    std::uint64_t c0 = rdcycles();
    std::uint64_t spin = end_->send(m);
    counters_.tx_cycles += (rdcycles() - c0) + spin;
    bump_live(counters_.tx_msgs);
    if (obs::tracing_enabled()) {
      // last_sent() right after a data send is the (possibly bumped) wire
      // timestamp — exactly what the receiver sees, so both ends derive the
      // same flow id independently.
      obs::record_flow(true, trace_track_, end_->last_sent(),
                       obs::flow_id(channel_hash(), end_->last_sent()));
    }
  }

  std::string name_;
  std::string peer_component_;
  ChannelEnd* end_;
  Handler handler_;
  ProfCounters counters_;
  EventDigest digest_;
  std::unique_ptr<ChannelFaultInjector> fault_;  ///< null = injection off
  std::uint64_t channel_hash_ = 0;
  // next_sync_due() cache, keyed on last_sent; it starts as the due time
  // for last_sent 0 (one interval).
  mutable SimTime due_last_sent_ = 0;
  mutable SimTime due_;
  std::uint32_t trace_track_ = 0;
  std::uint32_t peer_trace_track_ = 0;
};

}  // namespace splitsim::sync
