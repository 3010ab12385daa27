// Native parallelization baselines for the SplitSim-vs-native comparison
// (paper §4.5.2, Fig. 8).
//
// The paper compares SplitSim's decomposition (per-channel conservative
// sync over trunked lock-free channels) against the simulators' built-in
// schemes:
//  * ns-3 MPI: globally barrier-synchronized time stepping at lookahead
//    granularity, with per-message MPI send/receive cost.
//  * OMNeT++ NMP: per-link null-message synchronization (no trunking) with
//    heavier per-message scheduling cost.
// We reproduce both on the same netsim models: partitions still exchange
// packets over SplitSim channels (so simulated behavior is identical), but
// the native schemes (a) forego trunking where applicable and (b) burn
// *real host cycles* per synchronization window and per message, calibrated
// to the published overheads of MPI barriers and OMNeT++ event scheduling.
// The profiler then measures these costs exactly like any other simulation
// work, and the projection model prices the baselines fairly.
#pragma once

#include "netsim/topology.hpp"

namespace splitsim::netsim {

enum class ParallelBackend {
  kSplitSim,   ///< trunked channels, per-channel sync (this paper)
  kNs3Native,  ///< MPI-like global barrier per lookahead window
  kOmnetNative ///< per-link null messages, heavier event costs
};

std::string to_string(ParallelBackend b);

struct NativeCosts {
  /// Cycles burned per barrier participation per window (MPI_Allgather-ish,
  /// grows with log2 of the partition count).
  std::uint64_t barrier_cycles = 3'000;
  /// Extra cycles per cross-partition message under MPI (pack+send+probe).
  std::uint64_t mpi_msg_cycles = 1'000;
  /// Extra cycles per cross-partition message under OMNeT++ (heavier
  /// per-event scheduling and marshalling).
  std::uint64_t omnet_msg_cycles = 500;
};

/// Instantiate `topo` into `sim` with the chosen parallelization backend.
/// All backends produce identical simulated behavior; they differ in
/// channel organization and synchronization overhead.
Instance instantiate_parallel(runtime::Simulation& sim, const Topology& topo,
                              const std::vector<int>& partition, ParallelBackend backend,
                              InstantiateOptions opts = {}, NativeCosts costs = {});

}  // namespace splitsim::netsim
