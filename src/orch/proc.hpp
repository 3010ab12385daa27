// Process planning and multi-process execution (the paper's deployment
// model: one OS process per partition, shm channels within a machine,
// socket trunks across machines).
//
// The planner derives *process groups* from the instantiated simulation
// itself: components connected by ordinary channels must share an address
// space (spill queues, proxies and memports assume it), while the channels
// a partition strategy cut — trunks (".trunk."), untrunked cut channels
// (".cut.") and external-host links ("eth-") — are exactly the seams where
// a process boundary may go. Every maximal component cluster not separated
// by a cut channel becomes one group.
//
// Execution then has two shapes:
//   - swap_transports_local: both ends stay in this process but the cut
//     channels run over real shm segments / localhost sockets — the
//     digest-parity harness for the transports themselves.
//   - run_multiprocess: fork one child per group. Every process (parent
//     and children) holds the identically-constructed full simulation —
//     determinism by construction — and each child executes only its group
//     (Simulation::set_active_components) with the cut channels rewired to
//     shm or socket transports. Each child writes its per-process artifacts,
//     always including its run record proc-<rank>/summary.json; the parent
//     reaps them, reads the records back (obs::read_run_stats), merges the
//     per-process EventDigests (the fold is commutative, so the merge
//     reproduces the single-process digest bit-identically) and components,
//     and writes one merged summary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "orch/instantiation.hpp"

namespace splitsim::orch {

/// One process group: a maximal set of components connected without
/// crossing a cut channel. `name` is the first member in construction
/// order (stable across processes).
struct ProcessGroup {
  std::string name;
  std::vector<std::string> components;
};

/// A channel whose ends land in different process groups.
struct PlannedCross {
  sync::Channel* channel = nullptr;
  int group_a = 0;  ///< group owning end_a
  int group_b = 0;  ///< group owning end_b
  /// Fold of the trunk sub-channel map carried over this channel (0 for a
  /// plain adapter); validated by the cross-process handshake.
  std::uint64_t map_hash = 0;
};

struct ProcessPlan {
  std::vector<ProcessGroup> groups;
  std::vector<PlannedCross> cross;

  int group_of(const std::string& component) const;
};

/// True when `name` identifies a partition-cut channel (trunk, untrunked
/// cut, or external-host link) — the only channels allowed to span
/// processes.
bool is_cut_channel(const std::string& name);

/// Derive the process plan from the wired simulation. exec.process_of, when
/// non-empty, merges named groups onto explicit process ranks (groups it
/// does not mention keep their own rank). Throws std::logic_error when a
/// non-cut channel would end up spanning two groups.
ProcessPlan plan_processes(runtime::Simulation& sim, const ExecSpec& exec);

/// Rewire every cross channel of `plan` onto a real `transport` ("shm" or
/// "socket") with both ends staying in this process, and start the
/// transports' handshakes. Runs after this must use RunMode::kThreaded
/// (cross-process transports force blocking channels). This is the
/// single-process digest-parity harness for the transport layer.
void swap_transports_local(runtime::Simulation& sim, const ProcessPlan& plan,
                           const std::string& transport, const std::string& run_id);

/// Fork-per-group multi-process run of `plan` (plan_processes(sim, exec);
/// exec.transport selects shm or socket trunks for the cut channels;
/// run_profiled runs a one-group plan in-process instead). Returns the
/// merged RunStats: per-process
/// digests folded into one whole-run digest, every child's components,
/// wall time = slowest child. On any child failure (including peer-process
/// death) throws a SimulationError rebuilt from the failing child's run
/// record, with the merged partial stats attached — surviving children
/// still write their artifacts first. Must be called before any threads
/// exist in this process.
///
/// `ckpt`, when given (every != 0), makes each child write per-rank shard
/// files into ckpt->dir (plus a parent manifest recording the rank count);
/// ckpt::load_resume merges them. `resume`, when given, is the snapshot
/// this run resumes from: after a successful run the parent merges this
/// run's shards at the resume boundary and verifies them against it
/// (kCheckpoint on divergence) — the multi-process form of the replay
/// verification the single-process collector does inline.
runtime::RunStats run_multiprocess(runtime::Simulation& sim, const ProfileSpec& profile,
                                   const ExecSpec& exec, const ProcessPlan& plan, SimTime end,
                                   const CkptSpec* ckpt = nullptr,
                                   const ckpt::Snapshot* resume = nullptr);

}  // namespace splitsim::orch
