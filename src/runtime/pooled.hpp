// Pooled execution (RunMode::kPooled): a fixed-size worker pool multiplexes
// M components over N workers with a horizon-based ready queue.
//
// Thread-per-component (kThreaded) hits a scaling wall as soon as a
// simulation has more components than the machine has cores: oversubscribed
// spinners steal cycles from runnable components, and wall time explodes.
// This is the same limitation SimBricks sidesteps by assuming one core per
// simulator process, and exactly what SplitSim's decomposition is meant to
// break. The pooled runner instead keeps one runnable-component queue:
//
//   * A component is runnable when its earliest action is within the safe
//     bound promised by its inbound channel horizons — the Poll rule every
//     mode shares (runtime/component.hpp).
//   * A blocked component promises its polled bound to all peers (null
//     messages) and parks — no busy spinning; it is re-enqueued when a peer
//     makes progress that could have advanced its horizon.
//   * Idle workers park on a condition variable (no busy spin), satisfying
//     the adaptive spin/yield/park wait discipline at the scheduler level.
//
// Adaptive orchestration hooks (orch/adaptive.hpp): when a PooledController
// is installed, scheduling switches to per-worker affinity queues (each slot
// has a home worker; idle workers steal from the longest backlog so no work
// ever strands), and the controller is invoked at wall-clock epoch
// boundaries under the scheduler lock with a per-epoch load/wait view. The
// controller may migrate components between workers — a slot-home
// reassignment, not a state copy, because components are already
// quantum-scoped here — and since conservative synchronization makes any
// safe execution order equivalent, none of this can change results.
//
// Determinism: workers only ever run a component exclusively (ownership is
// handed over through the scheduler mutex), and conservative synchronization
// makes any safe execution order produce bit-identical simulation results —
// checked mechanically via runtime::EventDigest in the determinism tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/component.hpp"

namespace splitsim::obs {
class Registry;
}

namespace splitsim::runtime {

/// Per-worker scheduling statistics. Kept per worker (not per pool) so load
/// imbalance is visible to the rebalancer and to users via RunStats /
/// summary.json. All fields are maintained under the scheduler lock.
struct PooledWorkerStats {
  std::uint64_t quanta = 0;            ///< scheduling quanta executed
  std::uint64_t busy_cycles = 0;       ///< cycles inside component quanta
  std::uint64_t steals = 0;            ///< quanta popped from another worker's queue
  std::uint64_t sched_parks = 0;       ///< times this worker parked on the cv
  std::uint64_t sched_park_cycles = 0; ///< cycles spent parked (idle)
  std::uint64_t migrations_in = 0;     ///< components migrated onto this worker
};

/// One component's view in a controller epoch (deltas since the previous
/// epoch boundary).
struct PooledEpochSlot {
  Component* comp = nullptr;
  unsigned home = 0;                 ///< current home worker
  std::uint64_t busy_cycles = 0;     ///< compute this epoch
  std::uint64_t wait_cycles = 0;     ///< parked-blocked time this epoch
  bool blocked = false;              ///< parked at the boundary
  bool finished = false;
  SimTime sim_time = 0;              ///< last published simulation time
};

/// Blocked-wait attribution per adapter this epoch: `comp` parked waiting on
/// `adapter` (whose peer limited the safe bound) for `cycles`.
struct PooledEpochWait {
  Component* comp = nullptr;
  sync::Adapter* adapter = nullptr;
  std::uint64_t cycles = 0;
};

/// Epoch view handed to PooledController::on_epoch under the scheduler
/// lock. The controller reads loads/waits, then requests migrations by
/// appending to `migrations`; the runner applies them (validated) after the
/// callback returns.
struct PooledEpoch {
  std::uint64_t index = 0;        ///< epoch number, starting at 0
  std::uint64_t wall_cycles = 0;  ///< wall cycles since the previous boundary
  unsigned workers = 1;
  std::vector<PooledEpochSlot> slots;
  std::vector<PooledEpochWait> waits;
  const std::vector<PooledWorkerStats>* worker_stats = nullptr;  ///< cumulative

  struct Migration {
    std::size_t slot = 0;
    unsigned to_worker = 0;
  };
  std::vector<Migration> migrations;  ///< filled by the controller
};

/// Epoch-boundary hook for adaptive orchestration. on_epoch runs under the
/// scheduler lock on whichever worker crossed the boundary: keep it cheap,
/// never block, and never call back into the runner. Component pointers in
/// the view may only be used for immutable reads (name, adapters wiring) —
/// other slots' owners may be running concurrently.
class PooledController {
 public:
  virtual ~PooledController() = default;
  virtual void on_epoch(PooledEpoch& epoch) = 0;
};

struct PooledOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(), always
  /// clamped to [1, #components].
  unsigned workers = 0;
  /// Slow-progress watchdog: abort with an attributed
  /// SimulationError(kDeadlock) when the minimum simulation time across
  /// live components fails to advance for this many TSC cycles even though
  /// scheduling quanta keep executing (a stalled model limping through the
  /// ready queue — invisible to the deadlock rescue scan, which only fires
  /// when nothing is runnable). 0 = disabled.
  std::uint64_t watchdog_cycles = 0;

  /// Epoch-boundary controller (adaptive orchestration); turns on per-worker
  /// affinity queues with work stealing. Must outlive the run. nullptr = no
  /// epochs and one global ready queue.
  PooledController* controller = nullptr;
  /// Wall-clock epoch length in TSC cycles (only with a controller).
  std::uint64_t epoch_cycles = 0;
  /// When set, the runner exports live per-channel ("pooled.wait.chan.<c>")
  /// and per-component ("pooled.wait.comp.<c>") blocked-wait cycle counters
  /// into this registry mid-run — the WTPG edge data, available while the
  /// run is still going instead of only post-run.
  obs::Registry* metrics = nullptr;
};

/// Run `components` (already prepare()d) to completion on a worker pool.
/// Channels must be in ChannelMode::kSpillLocked so producers never block.
/// Throws SimulationError(kDeadlock) on a synchronization deadlock (mirrors
/// the coscheduled runner's check); model exceptions escaping a component
/// are rethrown as SimulationError(kModelError) naming that component.
/// `worker_stats_out`, when non-null, receives the per-worker stats — on
/// the throw path too, so a failed run's imbalance is still inspectable.
void run_pooled(const std::vector<Component*>& components, const PooledOptions& opts,
                std::vector<PooledWorkerStats>* worker_stats_out = nullptr);

}  // namespace splitsim::runtime
