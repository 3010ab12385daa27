// Execution of a wired-up SplitSim simulation: coscheduled on a single
// thread (load measurement, small machines) or on the worker pool of
// runtime/pooled.hpp — pooled (many components over few cores) or threaded
// (one worker per component, SimBricks-style).
//
// Conservative lookahead synchronization makes all three modes produce
// bit-identical simulation results; RunStats::digest (an order-insensitive
// fold of every delivered message) lets tests check that mechanically.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
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
  kThreaded,     ///< the worker pool with one worker per component
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
  /// Wire counters of the channel's transport, when it has them (shm and
  /// socket transports; in-process channels have none).
  std::optional<sync::WireStats> wire;
};

/// Per-component result snapshot.
struct ComponentStats {
  std::string name;
  std::uint64_t busy_cycles = 0;
  /// The modeled host work inside busy_cycles (Component::virtual_cycles):
  /// deterministic, unlike the measured rest.
  std::uint64_t virtual_cycles = 0;
  std::uint64_t wall_cycles = 0;  ///< the run's wall time
  std::uint64_t batches = 0;
  /// Batches that only emitted a due SYNC (Component::sync_only_batches).
  std::uint64_t sync_only_batches = 0;
  std::uint64_t events = 0;
  EventDigest digest;  ///< fold of all messages this component received
  std::vector<AdapterStats> adapters;
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
  /// Per-worker scheduling stats from a pooled or threaded run (empty for
  /// coscheduled): quanta and busy/park cycles — the load-imbalance view,
  /// also emitted into summary.json.
  std::vector<PooledWorkerStats> pooled_workers;
  /// Coscheduled runner overhead (0 in other modes). sched_polls counts
  /// its Component::poll() calls and sched_segments its run segments (one
  /// heap selection each); both are deterministic. sched_cycles is
  /// measured around heap selection and re-keying, so runtime overhead is
  /// read directly rather than as wall minus the components' busy time.
  std::uint64_t sched_polls = 0;
  std::uint64_t sched_segments = 0;
  std::uint64_t sched_cycles = 0;

  /// Failure attribution for partial stats (attached to the thrown
  /// SimulationError so a long run's profile survives the failure).
  RunOutcome outcome = RunOutcome::kCompleted;
  std::string error;            ///< SimulationError::what(), "" if completed
  ErrorKind error_kind = ErrorKind::kModelError;
  std::string error_cause;      ///< SimulationError::cause(), without the prefix
  std::string error_component;  ///< failing component ("" if none/unknown)
  SimTime error_sim_time = 0;   ///< failing component's sim time

  /// Mark the run failed with `e`'s attribution (every error field above).
  void record_error(const SimulationError& e);

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

  /// Inject a failure into a running (or the next) threaded or pooled run
  /// from another thread — the process-mode monitor uses this to turn peer
  /// process death into an attributed SimulationError instead of a hang.
  /// The first failure wins; the run unwinds through the normal abort path
  /// with partial stats attached.
  void fail_run(std::exception_ptr e);

  /// Worker-pool watchdog window in wall milliseconds (0 disables): a
  /// threaded or pooled run fails with SimulationError(kDeadlock) when a
  /// component runs without advancing, or all wait and no bound grows, for
  /// a whole window (runtime/pooled.hpp).
  void set_watchdog_ms(std::uint64_t ms) { watchdog_ms_ = ms; }

  /// Configure live observability — tracing, periodic metrics snapshots,
  /// progress reporting — for subsequent run() calls. With the default
  /// (all off) the runtime's hot paths see only a relaxed-load branch.
  void set_obs(const obs::ObsConfig& cfg) { obs_ = cfg; }
  const obs::ObsConfig& obs_config() const { return obs_; }

  /// Metrics registry backing the last/next run (live while running).
  obs::Registry& metrics() { return metrics_; }

  /// Periodic metrics snapshots from the last run, ending with one final
  /// end-of-run snapshot (empty when metrics were off).
  const std::vector<obs::MetricsSnapshot>& metrics_series() const { return metrics_series_; }

  /// Human-readable wiring manifest: every simulator instance, its
  /// adapters, the peer each one connects to, and the channel parameters —
  /// what the orchestration layer assembled and will execute.
  std::string describe();

  /// Run until `end` of simulated time; returns profiling/run statistics.
  /// `workers` only applies to RunMode::kPooled (0 = hardware concurrency);
  /// RunMode::kThreaded uses one worker per active component.
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
  void run_coscheduled(const std::vector<Component*>& active, const PeerIndex& peers,
                       SimTime end);
  /// Name every adapter's peer component and index the peers of `active`.
  PeerIndex resolve_peers(const std::vector<Component*>& active);

  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<sync::Channel>> channels_;
  std::vector<std::string> active_names_;  ///< empty = all components run
  RunAbort abort_;  ///< the failure slot of threaded and pooled runs
  std::uint64_t watchdog_ms_ = 500;
  obs::ObsConfig obs_;
  obs::Registry metrics_;
  std::vector<obs::MetricsSnapshot> metrics_series_;
  /// Interned track ids for trunk counter tracks (reporter thread only).
  std::unordered_map<std::string, std::uint32_t> counter_track_ids_;
  std::vector<PooledWorkerStats> pooled_workers_;  ///< filled by pooled runs
  std::uint64_t sched_polls_ = 0;     ///< filled by coscheduled runs
  std::uint64_t sched_segments_ = 0;  ///< filled by coscheduled runs
  std::uint64_t sched_cycles_ = 0;    ///< filled by coscheduled runs
};

}  // namespace splitsim::runtime
