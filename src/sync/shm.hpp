// Shared-memory channel transport: the SimBricks process model.
//
// The two SPSC rings of a channel live inside a named POSIX shm segment
// (shm_open + mmap) instead of the local heap, so the producer and consumer
// ends may be *different OS processes*. Blocked producers park on a futex
// word inside the segment (see RingState / sync/futex.hpp) — the
// cross-process replacement for in-process condvars.
//
// Segment layout (all offsets 64-byte aligned):
//
//   ShmHeader          magic / version / wire format / channel identity /
//                      ready flag / per-side pids / cooperative abort word
//   RingState a2b      indices + park words, produced by end_a
//   Message[cap] a2b
//   RingState b2a      produced by end_b
//   Message[cap] b2a
//
// One side *creates* the segment (O_CREAT|O_EXCL, ftruncate, init, then
// ready=1); the other *opens* it, waiting for ready with a timeout, and
// validates every identity field — magic, version, slot size, ring
// capacity, channel-name hash, channel-map hash, latency. Any mismatch is
// a TransportError naming the channel: two processes that disagree about
// the wire format must fail loudly before a single message moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "sync/transport.hpp"

namespace splitsim::sync {

struct ShmChannelParams {
  /// POSIX shm name ("/..."); see shm_segment_name().
  std::string shm_name;
  /// Channel name, for identity validation and error attribution.
  std::string channel_name;
  /// Fold of the trunk subport map carried over this channel (0 for plain
  /// adapters). Both processes must agree or the handshake fails.
  std::uint64_t map_hash = 0;
  /// Channel latency in time units, validated across processes.
  std::uint64_t latency = 0;
  std::size_t ring_capacity = 512;
  /// True on exactly one side: create + initialize the segment (and unlink
  /// it again on stop()). The other side opens and validates.
  bool create = false;
  /// Which end runs in this process: 0, 1, or -1 for both (single-process
  /// transport swap, e.g. the digest-parity tests).
  int local_side = -1;
  /// How long the opener waits for the creator's segment / ready flag.
  std::uint64_t open_timeout_ms = 10'000;
};

/// Derive the segment name for one channel of one run: "/ss.<run>.<hash>".
/// Short and shell-safe whatever the channel name contains.
std::string shm_segment_name(const std::string& run_id, const std::string& channel_name);

class ShmChannelTransport final : public Transport {
 public:
  /// Creates or opens+validates the segment. Throws TransportError on any
  /// identity mismatch or open timeout.
  explicit ShmChannelTransport(const ShmChannelParams& params);
  ~ShmChannelTransport() override;

  const char* kind() const override { return "shm"; }
  MessageRing* tx_ring(int side) override;
  MessageRing* rx_ring(int side) override;
  bool forces_blocking() const override { return true; }

  /// Registers the local side's pid in the header (peer-death probes).
  void start() override;
  /// Unregisters; the creating side also unlinks the segment name.
  void stop() override;

  std::string peer_failure(int side, bool fin_seen) override;

  /// Raise the segment's cooperative abort word so the peer process fails
  /// fast instead of discovering our death via the pid probe.
  void signal_abort() override;

  WireCounters* wire_counters() override { return &wire_; }

 private:
  struct Mapping;
  ShmChannelParams params_;
  std::unique_ptr<Mapping> map_;
  std::unique_ptr<MessageRing> ring_[2];  ///< [0] = a_to_b, [1] = b_to_a
  WireCounters wire_;
  bool stopped_ = false;
};

}  // namespace splitsim::sync
