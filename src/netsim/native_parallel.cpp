#include "netsim/native_parallel.hpp"

#include <algorithm>
#include <cmath>

#include "util/cycles.hpp"

namespace splitsim::netsim {

std::string to_string(ParallelBackend b) {
  switch (b) {
    case ParallelBackend::kSplitSim:
      return "SplitSim";
    case ParallelBackend::kNs3Native:
      return "ns3-native(MPI)";
    case ParallelBackend::kOmnetNative:
      return "omnet-native(NMP)";
  }
  return "?";
}

namespace {

/// Schedule a recurring overhead event on a Network: every `window` of
/// simulated time, burn host cycles proportional to the fixed per-window
/// cost plus the cross-partition messages exchanged since the last window.
void add_overhead_ticker(Network& net, SimTime window, std::uint64_t fixed_cycles,
                         std::uint64_t per_msg_cycles) {
  // Self-rescheduling by value: each firing copies the ticker into the next
  // event, so the only live copy is the one inside the kernel's pending
  // event and it is destroyed with the kernel. (The previous shared_ptr<
  // std::function> formulation captured its own shared_ptr and could never
  // drop to refcount zero.) At 40 bytes the ticker also fits the kernel's
  // inline callback buffer: no allocation per tick.
  struct Ticker {
    Network* net;
    SimTime window;
    std::uint64_t fixed_cycles;
    std::uint64_t per_msg_cycles;
    std::uint64_t last_msgs = 0;

    void operator()() {
      std::uint64_t msgs = 0;
      for (const auto& a : net->adapters()) {
        msgs += a->counters().tx_msgs + a->counters().rx_msgs;
      }
      std::uint64_t delta = msgs - last_msgs;
      last_msgs = msgs;
      // Costs host time but no simulated time.
      add_virtual_cycles(fixed_cycles + per_msg_cycles * delta);
      net->kernel().schedule_in(window, *this);
    }
  };
  net.kernel().schedule_at(window, Ticker{&net, window, fixed_cycles, per_msg_cycles});
}

}  // namespace

Instance instantiate_parallel(runtime::Simulation& sim, const Topology& topo,
                              const std::vector<int>& partition, ParallelBackend backend,
                              InstantiateOptions opts, NativeCosts costs) {
  if (backend == ParallelBackend::kSplitSim) {
    return instantiate(sim, topo, partition, opts);
  }

  // OMNeT++'s per-link null-message scheme: one dedicated channel per cut link.
  if (backend == ParallelBackend::kOmnetNative) opts.use_trunks = false;
  Instance inst = instantiate(sim, topo, partition, opts);
  if (inst.nets.size() <= 1) return inst;  // no cross-partition overhead

  // Synchronization window: the minimum cut-link latency (the lookahead
  // both native schemes synchronize at).
  SimTime window = kSimTimeMax;
  for (const auto& l : topo.links()) {
    int pa = partition.empty() ? 0 : partition[static_cast<std::size_t>(l.a)];
    int pb = partition.empty() ? 0 : partition[static_cast<std::size_t>(l.b)];
    if (pa != pb) window = std::min(window, l.latency);
  }
  if (window == kSimTimeMax || window == 0) window = from_us(1.0);

  int nparts = static_cast<int>(inst.nets.size());
  for (Network* net : inst.nets) {
    if (backend == ParallelBackend::kNs3Native) {
      // Global barrier per window: cost grows with participant count.
      double logp = std::log2(std::max(2, nparts));
      auto barrier = static_cast<std::uint64_t>(costs.barrier_cycles * logp);
      add_overhead_ticker(*net, window, barrier, costs.mpi_msg_cycles);
    } else {
      // OMNeT++ NMP: the per-link channels already carry one real null
      // message per link per window (no trunking); add the heavier
      // per-message event-scheduling cost.
      add_overhead_ticker(*net, window, 0, costs.omnet_msg_cycles);
    }
  }
  return inst;
}

}  // namespace splitsim::netsim
