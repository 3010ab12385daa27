// Per-adapter profiling counters (paper §3.3, "Lightweight Instrumentation").
//
// Each SplitSim adapter continuously counts (1) CPU cycles blocked waiting
// for a synchronization message from the peer, (2) cycles spent sending data
// messages, and (3) cycles spent processing incoming data messages, plus
// message counts. The profiler post-processor turns these into simulation
// speed, per-simulator efficiency, and the wait-time profile graph.
#pragma once

#include <cstdint>

namespace splitsim::sync {

struct ProfCounters {
  std::uint64_t sync_wait_cycles = 0;  ///< blocked waiting for peer horizon
  std::uint64_t tx_cycles = 0;         ///< spent in send paths (incl. backpressure)
  std::uint64_t rx_cycles = 0;         ///< spent in message handlers
  std::uint64_t tx_msgs = 0;           ///< data messages sent
  std::uint64_t rx_msgs = 0;           ///< data messages received
  std::uint64_t tx_syncs = 0;          ///< sync (null) messages sent
  /// Sends that hit a full ring (blocked or spilled). Not maintained on the
  /// send fast path: the channel end counts stalls in an atomic and the
  /// runtime copies the value here when it snapshots counters.
  std::uint64_t backpressure_stalls = 0;

  ProfCounters& operator+=(const ProfCounters& o) {
    sync_wait_cycles += o.sync_wait_cycles;
    tx_cycles += o.tx_cycles;
    rx_cycles += o.rx_cycles;
    tx_msgs += o.tx_msgs;
    rx_msgs += o.rx_msgs;
    tx_syncs += o.tx_syncs;
    backpressure_stalls += o.backpressure_stalls;
    return *this;
  }

  ProfCounters delta(const ProfCounters& earlier) const {
    ProfCounters d;
    d.sync_wait_cycles = sync_wait_cycles - earlier.sync_wait_cycles;
    d.tx_cycles = tx_cycles - earlier.tx_cycles;
    d.rx_cycles = rx_cycles - earlier.rx_cycles;
    d.tx_msgs = tx_msgs - earlier.tx_msgs;
    d.rx_msgs = rx_msgs - earlier.rx_msgs;
    d.tx_syncs = tx_syncs - earlier.tx_syncs;
    d.backpressure_stalls = backpressure_stalls - earlier.backpressure_stalls;
    return d;
  }

  std::uint64_t overhead_cycles() const { return sync_wait_cycles + tx_cycles + rx_cycles; }
};

}  // namespace splitsim::sync
