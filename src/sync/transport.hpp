// Pluggable data path under sync::Channel.
//
// A Channel's synchronization semantics (timestamps, SYNC/FIN, horizons,
// digests) are transport-independent; what varies is where the two SPSC
// rings live and how a blocked producer parks:
//
//   InProcTransport   both rings on the local heap (the historical layout;
//                     every run mode, both ends in one address space)
//   ShmChannelTransport  rings inside a named POSIX shm segment with futex
//                     parking, so the two ends may be different OS
//                     processes (sync/shm.hpp)
//   SocketTransport   producer writes length-prefixed frames to a TCP
//                     stream; a pump thread on the consumer side feeds a
//                     local staging ring (sync/shm-less, spans machines;
//                     sync/socket.hpp)
//
// The seam is deliberately narrow: a transport supplies per-side rings (or
// a direct send path), says whether it restricts the channel to blocking
// mode, and reports peer death. Channel/ChannelEnd keep all protocol state
// — swapping the transport cannot change simulation results, which is what
// the cross-transport digest-parity tests pin down.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sync/message.hpp"
#include "sync/spsc_ring.hpp"

namespace splitsim::sync {

/// Wire facts of one adapter, carried in runtime::AdapterStats and the run
/// record (summary.json). Frame, SYNC and data counts are the sending
/// adapter's own (Adapter::wire_stats); bytes and futex counts are the
/// transport's (WireCounters).
struct WireStats {
  std::uint64_t tx_frames = 0;  ///< tx_syncs + tx_datas + the FIN, once sent
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_syncs = 0;
  std::uint64_t tx_datas = 0;
  std::uint64_t futex_parks = 0;
  std::uint64_t futex_wakes = 0;

  WireStats& operator+=(const WireStats& o) {
    tx_frames += o.tx_frames;
    tx_bytes += o.tx_bytes;
    tx_syncs += o.tx_syncs;
    tx_datas += o.tx_datas;
    futex_parks += o.futex_parks;
    futex_wakes += o.futex_wakes;
    return *this;
  }
};

/// What one cross-process transport alone sees: bytes on the wire, futex
/// parks/wakes (shm) and the hello clock skew (sockets). Each process
/// counts only its local sides. Frame, SYNC and data counts are not kept
/// here: the sending adapter counts them once (sync/counters.hpp).
/// `frame_overhead` / `fixed_frame_bytes` let ChannelEnd::send account
/// bytes-on-the-wire without a virtual call per message: bytes = fixed
/// (shm: one ring slot) or overhead + payload (socket: len prefix + header).
struct WireCounters {
  /// Wire bytes sent by each side (index = side). Only that side's sender
  /// writes its slot (relaxed load+store); the obs reporter reads it live.
  std::atomic<std::uint64_t> tx_bytes[2] = {};
  std::atomic<std::uint64_t> futex_parks{0};  ///< producer futex waits (shm)
  std::atomic<std::uint64_t> futex_wakes{0};  ///< consumer futex wakes (shm)
  /// Hello-time clock calibration: local rdcycles() at hello receipt minus
  /// the peer's rdcycles() stamped into its hello (socket trunks). On one
  /// machine this measures handshake latency; across machines it is the TSC
  /// offset a multi-machine merge would subtract. 0 = no calibration (shm:
  /// forked processes share the TSC and the parent-issued trace epoch).
  std::atomic<std::int64_t> clock_skew_cycles{0};
  std::uint32_t frame_overhead = 0;
  std::uint32_t fixed_frame_bytes = 0;
};

/// Failure in the transport machinery itself: handshake/version mismatch,
/// a peer process dying mid-run, a broken socket. The runtime wraps this
/// into SimulationError{kind=kTransport}; the message always names the
/// channel so failures attribute even when no component is at fault.
class TransportError : public std::runtime_error {
 public:
  TransportError(std::string channel, const std::string& what)
      : std::runtime_error(what), channel_(std::move(channel)) {}
  const std::string& channel() const { return channel_; }

 private:
  std::string channel_;
};

/// Data path of one Channel. `side` is 0 for end_a, 1 for end_b.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* kind() const = 0;

  /// Ring `side` produces into / consumes from. tx_ring may be nullptr for
  /// a side that sends_direct (or is remote); rx_ring must always be a
  /// valid ring for sides that exist locally (the obs reporter polls its
  /// depth even on quiescent ends).
  virtual MessageRing* tx_ring(int side) = 0;
  virtual MessageRing* rx_ring(int side) = 0;

  /// True when the transport supports only ChannelMode::kBlocking (no
  /// spill tiers). All cross-process-capable transports force blocking:
  /// the consumer never shares the producer's thread or worker pool, so
  /// blocking on ring space cannot self-deadlock, while spill queues are
  /// an address-space-local concept.
  virtual bool forces_blocking() const { return false; }

  /// When true for a side, sends bypass tx_ring and go through
  /// send_direct (socket transport: the kernel socket buffer provides the
  /// backpressure). send_direct may throw TransportError.
  virtual bool sends_direct(int /*side*/) const { return false; }
  virtual void send_direct(int /*side*/, const Message& /*msg*/) {}

  /// Bring up background machinery (socket handshake + pump threads, shm
  /// peer registration). Throws TransportError on validation failure.
  /// stop() must be idempotent and safe to call without start().
  virtual void start() {}
  virtual void stop() {}

  /// Non-empty when the transport observed the peer feeding `side`'s
  /// receive direction die before FIN (socket EOF/reset, shm pid probe).
  /// `fin_seen` is whether the local consumer already saw FIN there —
  /// death after FIN is a normal exit, not a failure.
  virtual std::string peer_failure(int /*side*/, bool /*fin_seen*/) { return {}; }

  /// Best-effort notification to the peer process that this side is
  /// aborting (shm: raise the segment's abort word and kick parked
  /// producers). Sockets need nothing: stop() closes the stream and the
  /// peer sees EOF-before-FIN.
  virtual void signal_abort() {}

  /// Wire byte/futex counters, or nullptr when this transport does not
  /// count (inproc: no wire). Non-null ⇒ ChannelEnd::send counts bytes and
  /// the obs layer registers `trunk.<channel>.*` gauges.
  virtual WireCounters* wire_counters() { return nullptr; }
};

/// The historical layout: both rings on the local heap.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::size_t ring_capacity)
      : a_to_b_(ring_capacity), b_to_a_(ring_capacity) {}

  const char* kind() const override { return "inproc"; }
  MessageRing* tx_ring(int side) override { return side == 0 ? &a_to_b_ : &b_to_a_; }
  MessageRing* rx_ring(int side) override { return side == 0 ? &b_to_a_ : &a_to_b_; }

 private:
  // a_to_b: produced by end_a, consumed by end_b (and vice versa).
  MessageRing a_to_b_;
  MessageRing b_to_a_;
};

}  // namespace splitsim::sync
