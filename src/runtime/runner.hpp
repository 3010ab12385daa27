// Execution of a wired-up SplitSim simulation: thread-per-component
// (parallel, SimBricks-style), coscheduled on a single thread (used for
// load measurement and on small machines), or pooled — a fixed worker pool
// multiplexing many components over few cores (runtime/pooled.hpp).
//
// Conservative lookahead synchronization makes all three modes produce
// bit-identical simulation results; RunStats::digest (an order-insensitive
// fold of every delivered message) lets tests check that mechanically.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/progress.hpp"
#include "runtime/component.hpp"
#include "runtime/error.hpp"
#include "runtime/pooled.hpp"
#include "sync/channel.hpp"
#include "sync/digest.hpp"
#include "util/time.hpp"

namespace splitsim::runtime {

enum class RunMode {
  kThreaded,     ///< one OS thread per component simulator
  kCoscheduled,  ///< all components interleaved on the calling thread
  kPooled,       ///< fixed worker pool, horizon-based ready queue
};

/// Order-insensitive determinism digest (see sync/digest.hpp). Identical
/// across run modes for the same simulation and seeds.
using EventDigest = sync::EventDigest;

std::string to_string(RunMode mode);

/// Per-adapter result snapshot for the profiler post-processor.
struct AdapterStats {
  std::string adapter;
  std::string component;
  std::string peer_component;
  sync::ProfCounters totals;
  SimTime channel_latency = 0;
};

/// Per-component result snapshot.
struct ComponentStats {
  std::string name;
  std::uint64_t busy_cycles = 0;
  /// The modeled host work inside busy_cycles (Component::virtual_cycles):
  /// deterministic, unlike the measured rest.
  std::uint64_t virtual_cycles = 0;
  std::uint64_t wall_cycles = 0;
  /// Threaded mode: post-finish drain time, kept out of wall_cycles so
  /// busy/wall utilization is not deflated for early finishers.
  std::uint64_t drain_cycles = 0;
  std::uint64_t batches = 0;
  std::uint64_t events = 0;
  EventDigest digest;  ///< fold of all messages this component received
  std::vector<AdapterStats> adapters;
  std::vector<ProfSample> samples;
};

/// How a run ended.
enum class RunOutcome {
  kCompleted,  ///< reached the end time
  kError,      ///< failed; see RunStats::error (run() also threw)
};

std::string to_string(RunOutcome o);

/// Everything the profiler needs about one completed run.
struct RunStats {
  RunMode mode = RunMode::kCoscheduled;
  SimTime sim_time = 0;           ///< simulated duration (target end time)
  std::uint64_t wall_cycles = 0;  ///< run wall time in cycle units
  double wall_seconds = 0.0;
  EventDigest digest;  ///< whole-run determinism digest (merged components)
  std::vector<ComponentStats> components;
  /// Per-worker scheduling stats from a pooled run (empty for other modes):
  /// quanta, busy/park cycles, steals, migrations — the load-imbalance view
  /// the adaptive rebalancer works from, also emitted into summary.json.
  std::vector<PooledWorkerStats> pooled_workers;
  /// Coscheduled runner overhead (0 in other modes). sched_polls counts
  /// its Component::poll() calls and is deterministic; sched_cycles is
  /// measured around heap selection and re-keying, so runtime overhead is
  /// read directly rather than as wall minus the components' busy time.
  std::uint64_t sched_polls = 0;
  std::uint64_t sched_cycles = 0;

  /// Failure attribution for partial stats (attached to the thrown
  /// SimulationError so a long run's profile survives the failure).
  RunOutcome outcome = RunOutcome::kCompleted;
  std::string error;            ///< SimulationError::what(), "" if completed
  std::string error_component;  ///< failing component ("" if none/unknown)
  SimTime error_sim_time = 0;   ///< failing component's sim time

  double sim_seconds() const { return to_sec(sim_time); }
  /// Simulation speed: simulated seconds per wall-clock second.
  double sim_speed() const { return wall_seconds > 0 ? sim_seconds() / wall_seconds : 0.0; }
};

/// Owns the channels and components of one simulation and runs them.
///
/// This is the object the orchestration layer (orch::Instantiation) builds;
/// it can also be assembled by hand for small simulations (see examples/).
class Simulation {
 public:
  Simulation() = default;

  /// Construct a component in place. The simulation owns it.
  template <typename T, typename... Args>
  T& add_component(Args&&... args) {
    auto c = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *c;
    components_.push_back(std::move(c));
    return ref;
  }

  sync::Channel& add_channel(std::string name, sync::ChannelConfig cfg = {});

  const std::vector<std::unique_ptr<Component>>& components() const { return components_; }
  std::vector<std::unique_ptr<sync::Channel>>& channels() { return channels_; }

  /// Restrict subsequent run() calls to the named components (process mode:
  /// each process builds the full system for deterministic construction but
  /// executes only its own partition group). Empty = all components active
  /// (the default). Inactive components are not prepared, not scheduled,
  /// and excluded from RunStats — their channel ends are fed by the peer
  /// process through the cross-process transports instead.
  void set_active_components(std::vector<std::string> names);
  bool component_active(const Component& c) const;

  /// Inject a failure into a running (or about-to-run) threaded simulation
  /// from another thread — the process-mode monitor uses this to turn peer
  /// process death into an attributed SimulationError instead of a hang.
  /// The first failure wins; the run unwinds through the normal abort path
  /// with partial stats attached.
  void fail_run(std::exception_ptr e);

  /// Enable periodic profiler sampling on every component (threaded runs).
  void enable_profiling(std::uint64_t sample_period_cycles = 50'000'000);

  /// Threaded-mode hang watchdog window in wall milliseconds (0 disables).
  /// When every unfinished component thread is blocked and no horizon
  /// progress happens for a full window, the run fails with a
  /// SimulationError(kDeadlock) instead of spinning forever — the threaded
  /// analogue of the deadlock checks in the coscheduled and pooled runners.
  void set_watchdog_ms(std::uint64_t ms) { watchdog_ms_ = ms; }
  std::uint64_t watchdog_ms() const { return watchdog_ms_; }

  /// Configure live observability — tracing, periodic metrics snapshots,
  /// progress reporting — for subsequent run() calls. With the default
  /// (all off) the runtime's hot paths see only a relaxed-load branch.
  void set_obs(const obs::ObsConfig& cfg) { obs_ = cfg; }
  const obs::ObsConfig& obs_config() const { return obs_; }

  /// Metrics registry backing the last/next run (live while running).
  obs::Registry& metrics() { return metrics_; }

  /// Install an epoch-boundary controller for subsequent pooled runs
  /// (adaptive orchestration; see orch/adaptive.hpp). The controller is
  /// invoked under the pooled scheduler lock every `epoch_ms` of wall time
  /// and may migrate components between workers. nullptr uninstalls.
  /// Ignored by the threaded and coscheduled modes.
  void set_pooled_controller(PooledController* c, std::uint64_t epoch_ms = 10) {
    pooled_controller_ = c;
    pooled_epoch_ms_ = epoch_ms;
  }
  PooledController* pooled_controller() const { return pooled_controller_; }

  /// Periodic metrics snapshots from the last run, ending with one final
  /// end-of-run snapshot (empty when metrics were off).
  const std::vector<obs::MetricsSnapshot>& metrics_series() const { return metrics_series_; }

  /// Human-readable wiring manifest: every simulator instance, its
  /// adapters, the peer each one connects to, and the channel parameters —
  /// what the orchestration layer assembled and will execute.
  std::string describe();

  /// Run until `end` of simulated time; returns profiling/run statistics.
  /// `workers` only applies to RunMode::kPooled (0 = hardware concurrency).
  ///
  /// Failure contract (uniform across run modes): any failure — a model
  /// exception escaping a component, a synchronization deadlock, a watchdog
  /// timeout — is thrown as a SimulationError naming the failing component
  /// and its simulation time, with the partial RunStats of the aborted run
  /// attached (outcome == RunOutcome::kError). Observability state is torn
  /// down on the throw path exactly as on success, so a failed run never
  /// leaks tracing/metrics state into the next one.
  RunStats run(SimTime end, RunMode mode = RunMode::kCoscheduled, unsigned workers = 0);

 private:
  RunStats collect_stats(RunMode mode, SimTime end, std::uint64_t wall_cycles,
                         double wall_seconds);
  void run_coscheduled(const std::vector<Component*>& active, SimTime end);
  void resolve_peers();

  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<sync::Channel>> channels_;
  std::vector<std::string> active_names_;  ///< empty = all components run
  std::mutex fail_mu_;                     ///< guards live_shared_/pending_failure_
  ThreadedShared* live_shared_ = nullptr;  ///< set while a threaded run executes
  std::exception_ptr pending_failure_;     ///< fail_run() before the run started
  bool profiling_ = false;
  std::uint64_t sample_period_ = 0;
  std::uint64_t watchdog_ms_ = 500;
  obs::ObsConfig obs_;
  obs::Registry metrics_;
  std::vector<obs::MetricsSnapshot> metrics_series_;
  /// Interned track ids for trunk counter tracks (reporter thread only).
  std::unordered_map<std::string, std::uint32_t> counter_track_ids_;
  PooledController* pooled_controller_ = nullptr;
  std::uint64_t pooled_epoch_ms_ = 10;
  std::vector<PooledWorkerStats> pooled_workers_;  ///< filled by pooled runs
  std::uint64_t sched_polls_ = 0;   ///< filled by coscheduled runs
  std::uint64_t sched_cycles_ = 0;  ///< filled by coscheduled runs
};

}  // namespace splitsim::runtime
