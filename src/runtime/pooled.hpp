// The worker pool behind RunMode::kPooled and RunMode::kThreaded: N workers
// multiplex M components through one FIFO ready queue. Threaded is the pool
// with one worker per component (one simulator per core, SimBricks' shape).
//
//   * A component runs while its earliest action is within the safe bound
//     of its inbound horizons (the Poll rule, runtime/component.hpp). When
//     blocked it promises that bound to its peers (null messages) and parks
//     until a peer's progress could have raised it. Idle workers park on a
//     condition variable.
//   * Spin-then-park: with one worker per component, a blocked component
//     first re-polls through sync::WaitState's spin and yield phases; no
//     other component could use the worker anyway. Spin time is wait time,
//     charged to the limiting adapter.
//   * Remote wait: a limiter whose channel is kBlocking is fed by a
//     cross-process transport, which no local quantum end signals. The
//     worker keeps the component and re-polls with the full backoff, so
//     kBlocking channels need one worker per component (threaded runs).
//   * Drain: a finished component discards what arrives on its kBlocking
//     channels until the peer's FIN, so a producer blocked on ring space
//     towards it can finish too.
//   * Failure: the first error wins (RunAbort). Deadlocks surface from the
//     rescue scan (nothing runnable) or the remote-wait check (all parked
//     or in remote waits, no bound grown for a watchdog window); the
//     slow-progress watchdog catches a component that runs without
//     advancing.
//
// Determinism: workers only ever run a component exclusively (ownership is
// handed over through the scheduler mutex), and conservative synchronization
// makes any safe execution order produce bit-identical simulation results —
// checked mechanically via runtime::EventDigest in the determinism tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "runtime/component.hpp"

namespace splitsim::runtime {

/// Per-worker scheduling statistics. Kept per worker (not per pool) so load
/// imbalance is visible to users via RunStats / summary.json. All fields
/// are maintained under the scheduler lock.
struct PooledWorkerStats {
  std::uint64_t quanta = 0;            ///< scheduling quanta executed
  std::uint64_t busy_cycles = 0;       ///< cycles inside component quanta
  std::uint64_t sched_parks = 0;       ///< times this worker parked on the cv
  std::uint64_t sched_park_cycles = 0; ///< cycles spent parked (idle)
};

struct PooledOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(), always
  /// clamped to [1, #components]. #components workers turn on
  /// spin-then-park (see the file comment).
  unsigned workers = 0;
  /// Slow-progress watchdog: abort with an attributed
  /// SimulationError(kDeadlock) when a component keeps executing scheduling
  /// quanta without its simulation time advancing for this many TSC cycles
  /// (a stalled model limping through the ready queue — invisible to the
  /// deadlock rescue scan, which only fires when nothing is runnable). The
  /// same window bounds the remote-wait deadlock check. 0 = disabled.
  std::uint64_t watchdog_cycles = 0;
};

/// First-error-wins failure slot of a pooled run. The workers, the blocking
/// sends of kBlocking channels (Channel::set_abort_flag(&flag())) and
/// Simulation::fail_run (the process-mode peer-death monitor) all report
/// into it; later failures are cascade effects and are dropped.
class RunAbort {
 public:
  void fail(std::exception_ptr e) {
    std::lock_guard<std::mutex> l(mu_);
    if (!error_) error_ = std::move(e);
    flag_.store(true, std::memory_order_release);
  }
  bool aborted() const { return flag_.load(std::memory_order_relaxed); }
  const std::atomic<bool>& flag() const { return flag_; }
  std::exception_ptr error() {
    std::lock_guard<std::mutex> l(mu_);
    return error_;
  }
  void reset() {
    std::lock_guard<std::mutex> l(mu_);
    error_ = nullptr;
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
  std::atomic<bool> flag_{false};
};

/// Run `components` (already prepare()d, wired as `peers` describes) to
/// completion on a worker pool. Channels must be kSpillLocked, or kBlocking
/// with one worker per component. Throws the first error reported into
/// `abort` (one already there aborts the run at once):
/// SimulationError(kDeadlock) on a deadlock, a model exception escaping a
/// component as SimulationError(kModelError) naming it, or what another
/// thread passed to abort.fail(). `worker_stats` receives the per-worker
/// stats on the throw path too, so a failed run's imbalance is still
/// inspectable.
void run_pooled(const std::vector<Component*>& components, const PeerIndex& peers,
                const PooledOptions& opts, RunAbort& abort,
                std::vector<PooledWorkerStats>& worker_stats);

}  // namespace splitsim::runtime
