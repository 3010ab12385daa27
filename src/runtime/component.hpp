// A SplitSim component simulator: one DES kernel plus the SplitSim adapters
// connecting it to peer components.
//
// Components expose a stepping interface used by all three execution modes,
// which share one runnability rule built on poll() (see Poll):
//  * Threaded mode runs each component on its own thread; blocked
//    components spin-poll their adapters (counting wait cycles for the
//    profiler) and exchange null messages, exactly like SimBricks processes.
//  * Coscheduled (single-thread) mode interleaves all components on one
//    thread, always advancing the component with the globally earliest next
//    action, kept in an indexed min-heap keyed on Poll::next that is
//    re-keyed only for the component that ran and the peers it sent data
//    to; with conservative synchronization this yields the same simulation
//    results and is how we measure per-component compute load on machines
//    with fewer cores than components.
//  * Pooled mode multiplexes components over a worker pool; blocked
//    components promise their bound and park until a peer progresses.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "des/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"
#include "sync/adapter.hpp"
#include "sync/trunk.hpp"
#include "util/cycles.hpp"
#include "util/time.hpp"

namespace splitsim::runtime {

/// One periodic profiler log entry: wall cycle counter, simulation time, and
/// a snapshot of every adapter's counters (paper §3.3: "log the values of
/// these counters for each adapter and the current time stamp counter as
/// well as that simulator's current simulation time").
struct ProfSample {
  std::uint64_t tsc = 0;
  SimTime sim_time = 0;
  std::vector<sync::ProfCounters> adapters;
};

/// State shared by all component threads of one threaded run: termination
/// accounting, first-error capture, and the inputs of the hang watchdog.
///
/// Watchdog model: `blocked` counts threads currently inside the blocked
/// wait loop, `remaining` counts unfinished threads, and `progress_epoch`
/// is bumped on every transition that can unblock someone (a thread leaving
/// the wait loop, a promised bound growing, a component finishing). A
/// blocked thread that observes blocked == remaining with an unchanged
/// epoch for a full watchdog window has proven the all-blocked-no-progress
/// condition — the same state pooled's rescue_scan_locked detects — and
/// fails the run with a deadlock diagnostic instead of spinning forever.
struct ThreadedShared {
  std::atomic<bool> abort{false};
  std::atomic<int> remaining{0};
  std::atomic<int> blocked{0};
  std::atomic<std::uint64_t> progress_epoch{0};
  /// Watchdog window in wall cycles; 0 disables deadlock detection.
  std::uint64_t watchdog_cycles = 0;

  /// Record the first failure and trip the abort flag. Later failures are
  /// dropped: they are cascade effects of the first one.
  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> l(err_mu);
      if (!error) error = std::move(e);
    }
    abort.store(true, std::memory_order_release);
  }

  std::exception_ptr take_error() {
    std::lock_guard<std::mutex> l(err_mu);
    return error;
  }

 private:
  std::mutex err_mu;
  std::exception_ptr error;
};

class Component;

/// Checkpoint boundary observer (implemented by ckpt::Collector; declared
/// here so the runtime does not depend on the ckpt layer). on_boundary(c, b)
/// fires exactly once per component per boundary b on the component's
/// executing thread, at a point where c's state at simulation time b is
/// final: every message with receive time <= b has been delivered and no
/// future delivery at or before b can occur (conservative synchronization —
/// the next batch time t satisfies t > b and t <= Poll::bound). Boundaries
/// fire in increasing order per component. Implementations must be
/// thread-safe across components.
class CkptHook {
 public:
  virtual ~CkptHook() = default;
  virtual void on_boundary(Component& c, SimTime boundary) = 0;
};

/// One consistent reading of a component's scheduling state, taken in a
/// single pass with one peek() per adapter (Component::poll). Every runner
/// applies the same rule to it: run a batch when next <= bound, finish when
/// done(end), otherwise promise exactly `bound` to the peers (send_nulls)
/// and poll again.
///
/// Soundness: a message that arrives after the poll carries a timestamp
/// above the SYNCs already seen, so its receive time lies above `bound`.
/// A poll therefore stays valid until acted on — bounds only grow — and a
/// blocked component that promises `bound` never sends data below that
/// promise, because all of its future actions lie beyond `bound`.
struct Poll {
  /// Earliest pending action: local event, message receive, or SYNC due.
  SimTime next = kSimTimeMax;
  /// Safe bound: min over adapters of the pending head's receive time, or
  /// of the channel horizon when nothing is pending. kSimTimeMax without
  /// adapters.
  SimTime bound = kSimTimeMax;
  /// The adapter that set `bound` (nullptr without adapters); blocked wait
  /// time is attributed to it.
  sync::Adapter* limiter = nullptr;

  /// Nothing is left to do up to `end`: no action by then, and no message
  /// can still arrive at or before it. (The coscheduled runner instead
  /// finishes everyone at once when the smallest `next` of all components
  /// passes `end`: then no component runs again, so no message can still
  /// be sent. Component::finish() checks that nothing due was left.)
  bool done(SimTime end) const { return next > end && bound >= end; }
};

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }
  des::Kernel& kernel() { return kernel_; }
  SimTime now() const { return kernel_.now(); }
  SimTime end_time() const { return end_; }

  // ---- adapters ------------------------------------------------------

  sync::Adapter& add_adapter(std::string name, sync::ChannelEnd& end);
  sync::TrunkAdapter& add_trunk(std::string name, sync::ChannelEnd& end);
  const std::vector<std::unique_ptr<sync::Adapter>>& adapters() const { return adapters_; }

  // ---- model lifecycle -------------------------------------------------

  /// Schedule initial events; called once before execution starts.
  virtual void init() {}
  /// Collect results; called once when the component reaches the end time.
  virtual void finalize() {}

  // ---- stepping API (used by runners) ----------------------------------

  void prepare(SimTime end);

  /// Read the next action time, the safe bound and its limiting adapter in
  /// one pass (see Poll).
  Poll poll();

  /// Execute the batch at `p.next`. Requires a poll of this component with
  /// p.next <= p.bound and p.next <= end_time(); it may be stale, since
  /// later arrivals land above p.bound.
  void advance(const Poll& p);

  bool finished() const { return finished_; }

  /// Mark completion: send FINs so peers never wait on us again. Throws
  /// sync::SyncViolation if a data message with receive time <= end_time()
  /// is still pending (it would otherwise be dropped silently).
  void finish();

  /// Promise `p.bound` to every peer via null messages (only where the
  /// promise actually advances the peer's horizon). Returns true if any
  /// message was sent — the pooled scheduler uses this to decide whether
  /// blocked peers could have become runnable.
  bool send_nulls(const Poll& p);

  /// Order-insensitive determinism digest over all messages this component
  /// has received (merged across its adapters).
  sync::EventDigest digest() const;

  /// Full threaded execution loop (prepare() must have been called).
  /// Throws SimulationError when the watchdog detects a deadlock; model
  /// exceptions propagate out for the runner to attribute and record.
  void run_thread(ThreadedShared& shared);

  // ---- checkpointing ---------------------------------------------------

  /// Install (or, with nullptr, remove) the checkpoint boundary observer.
  /// Boundaries are `first`, `first + every`, ... (every == 0: only
  /// `first`). Works in every run mode: all runners step components through
  /// advance()/finish().
  void set_ckpt_hook(CkptHook* hook, SimTime first = 0, SimTime every = 0) {
    ckpt_hook_ = hook;
    ckpt_every_ = every;
    ckpt_next_ = hook != nullptr ? first : kSimTimeMax;
  }

  // ---- fault injection -------------------------------------------------

  /// Throw a std::runtime_error(`message`) from the next batch at or after
  /// simulation time `at` — deterministically exercises the model-exception
  /// propagation path in every run mode.
  void inject_throw_at(SimTime at, std::string message);

  /// Starting at simulation time `at`, consume `batches` scheduling batches
  /// without making progress (a deterministic compute hiccup). Purely a
  /// performance fault: simulated behavior and digests are unchanged.
  void inject_stall(SimTime at, std::uint64_t batches);

  // ---- profiling -------------------------------------------------------

  /// Enable periodic counter sampling every `period_cycles` wall cycles.
  void enable_sampling(std::uint64_t period_cycles) { sample_period_ = period_cycles; }
  const std::vector<ProfSample>& samples() const { return samples_; }

  std::uint64_t busy_cycles() const { return busy_cycles_; }
  /// Charge `measured` wall cycles of work plus the modeled host work the
  /// models charged on this thread meanwhile (util/cycles.hpp), which is
  /// also kept apart in virtual_cycles(). Returns the total charged.
  std::uint64_t add_busy_cycles(std::uint64_t measured) {
    std::uint64_t v = drain_virtual_cycles();
    virtual_cycles_ += v;
    busy_cycles_ += measured + v;
    return measured + v;
  }
  /// The modeled part of busy_cycles(): deterministic for a given
  /// simulation, unlike the measured part.
  std::uint64_t virtual_cycles() const { return virtual_cycles_; }
  std::uint64_t wall_cycles() const { return wall_cycles_; }
  void set_wall_cycles(std::uint64_t c) { wall_cycles_ = c; }
  /// Threaded mode only: cycles spent in the post-finish drain phase
  /// (consuming peers' messages after this component completed). Kept out
  /// of wall_cycles_ so busy/wall utilization reflects the active run only.
  std::uint64_t drain_cycles() const { return drain_cycles_; }
  std::uint64_t batches() const { return batches_; }

  void record_sample_now();

  // ---- observability ---------------------------------------------------

  /// Enable live metrics: register this component's instruments in `reg`
  /// and publish into them from the owning thread every `publish_period`
  /// wall cycles (plus once at the end of the run). Call before the run.
  void enable_obs(obs::Registry& reg, std::uint64_t publish_period_cycles);

  /// Publish current values into the registered instruments. Runs on the
  /// owning thread during the run; the runner calls it once more after the
  /// component's thread has finished (no concurrency either way).
  void publish_obs_metrics();

  /// Sim-time low-water mark, readable from the progress-reporter thread
  /// (updated every few batches while obs is live, and at finish()).
  SimTime live_sim_time() const { return live_sim_time_.load(std::memory_order_relaxed); }

  /// Perfetto track for this component's trace records (propagated to the
  /// adapters by the runner when tracing is on).
  void set_trace_track(std::uint32_t t) { trace_track_ = t; }
  std::uint32_t trace_track() const { return trace_track_; }

 protected:
  /// Extra per-model instruments, registered/published with the base set
  /// (netsim's Network overrides these to expose device counters).
  virtual void register_extra_obs_metrics(obs::Registry&) {}
  virtual void publish_extra_obs_metrics() {}

 private:
  void maybe_observe();

  std::string name_;
  des::Kernel kernel_;
  std::vector<std::unique_ptr<sync::Adapter>> adapters_;
  SimTime end_ = 0;
  bool prepared_ = false;
  bool finished_ = false;

  std::uint64_t busy_cycles_ = 0;
  std::uint64_t virtual_cycles_ = 0;
  std::uint64_t wall_cycles_ = 0;
  std::uint64_t drain_cycles_ = 0;
  std::uint64_t batches_ = 0;

  // Checkpointing: fire ckpt_hook_ for every pending boundary < limit.
  void record_ckpt_boundaries(SimTime limit);

  CkptHook* ckpt_hook_ = nullptr;
  SimTime ckpt_next_ = kSimTimeMax;
  SimTime ckpt_every_ = 0;

  // Fault injection (runtime faults; channel faults live in the adapters).
  SimTime fault_throw_at_ = kSimTimeMax;
  std::string fault_throw_msg_;
  SimTime fault_stall_at_ = kSimTimeMax;
  std::uint64_t fault_stall_batches_ = 0;

  std::uint64_t sample_period_ = 0;  // 0 = sampling off
  std::uint64_t next_sample_tsc_ = 0;
  std::uint32_t batches_since_check_ = 0;
  std::vector<ProfSample> samples_;

  // Observability state. obs_live_ folds "any live obs duty" into one flag
  // so the per-batch check stays a single branch when everything is off.
  bool obs_live_ = false;
  obs::Registry* obs_registry_ = nullptr;
  std::uint64_t publish_period_ = 0;
  std::uint64_t next_publish_tsc_ = 0;
  std::atomic<SimTime> live_sim_time_{0};
  std::uint32_t trace_track_ = 0;
  // Cached instrument pointers (resolved once at enable_obs; publishing
  // must not take the registry's name-lookup mutex on the sim thread).
  obs::Gauge* g_sim_ns_ = nullptr;
  obs::Gauge* g_events_ = nullptr;
  obs::Gauge* g_cancelled_ = nullptr;
  obs::Gauge* g_live_events_ = nullptr;
  obs::Gauge* g_heap_entries_ = nullptr;
  obs::Gauge* g_batches_ = nullptr;
  obs::Histogram* h_queue_depth_ = nullptr;
};

/// The one deadlock diagnostic, shared by every runner: `c` cannot run
/// because its poll `p` has next > bound and no peer can raise the bound.
/// `detector` names who noticed (e.g. "coscheduled: no runnable component").
SimulationError deadlock_error(const Component& c, const Poll& p, const std::string& detector);

}  // namespace splitsim::runtime
