// Per-adapter profiling counters (paper §3.3, "Lightweight Instrumentation").
//
// Each SplitSim adapter continuously counts (1) CPU cycles blocked waiting
// for a synchronization message from the peer, (2) cycles spent sending data
// messages, and (3) cycles spent processing incoming data messages, plus
// message counts. The profiler post-processor turns these into simulation
// speed, per-simulator efficiency, and the wait-time profile graph.
#pragma once

#include <atomic>
#include <cstdint>

namespace splitsim::sync {

struct ProfCounters {
  std::uint64_t sync_wait_cycles = 0;  ///< blocked waiting for peer horizon
  std::uint64_t tx_cycles = 0;         ///< spent in send paths (incl. backpressure)
  std::uint64_t rx_cycles = 0;         ///< spent in message handlers
  std::uint64_t tx_msgs = 0;           ///< data messages sent (live, see below)
  std::uint64_t rx_msgs = 0;           ///< data messages received
  std::uint64_t tx_syncs = 0;          ///< SYNC messages sent, periodic and null (live)
  std::uint64_t tx_nulls = 0;          ///< the null-message subset of tx_syncs
  /// Sends that hit a full ring (blocked or spilled). Not maintained on the
  /// send fast path: the channel end counts stalls in an atomic and the
  /// runtime copies the value here when it snapshots counters.
  std::uint64_t backpressure_stalls = 0;

  std::uint64_t overhead_cycles() const { return sync_wait_cycles + tx_cycles + rx_cycles; }
};

// "Live" counters are read by the obs reporter (the trunk.* gauges) while
// their only writer, the owning thread, bumps them with a relaxed
// load+store: plain moves on x86, no read-modify-write, no fence.
static_assert(std::atomic_ref<std::uint64_t>::required_alignment <= alignof(std::uint64_t));

inline void bump_live(std::uint64_t& counter) {
  std::atomic_ref<std::uint64_t> c(counter);
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

inline std::uint64_t load_live(const std::uint64_t& counter) {
  // atomic_ref<const T> is C++26; a load does not write through the cast.
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

}  // namespace splitsim::sync
