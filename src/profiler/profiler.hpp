// SplitSim profiler (paper §3.3): turns the lightweight per-adapter
// instrumentation collected during a run into user-facing metrics —
// global simulation speed, per-simulator efficiency, per-channel waiting
// fractions — and the wait-time profile graph (WTPG).
//
// Two data sources are supported:
//  * Threaded runs: measured wall cycles and measured sync-wait cycles per
//    adapter (this is the paper's exact pipeline).
//  * Coscheduled runs (one thread; used to measure compute load precisely
//    on machines with fewer cores than simulated components): waiting is
//    *derived* from load imbalance — with conservative synchronization the
//    whole simulation advances at the pace of the most loaded component, so
//    a component with load L_i waits a fraction 1 - L_i / L_max of its wall
//    time. A calibrated performance model then projects wall-clock time for
//    a machine with a given core count (see PerfModelConfig).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runner.hpp"
#include "util/cycles.hpp"
#include "util/time.hpp"

namespace splitsim::profiler {

// Wall-cycle calibration (`cycles_per_second()`, measured once and cached
// thread-safely) lives in util/cycles.hpp as splitsim::cycles_per_second so
// layers below the profiler (obs, runtime) can use it too; unqualified
// calls from this nested namespace resolve to it.

/// Cost model for projecting parallel execution from coscheduled
/// measurements. Defaults calibrated for cross-core shared-memory channels.
struct PerfModelConfig {
  /// Extra cycles per sync (null) message when peers run on separate cores
  /// (cache-line transfer + polling) — absent from single-thread runs.
  double cycles_per_sync = 120.0;
  /// Extra cycles per data message crossing cores.
  double cycles_per_data_msg = 250.0;
  /// Available physical cores of the (possibly hypothetical) machine.
  unsigned cores = 48;
};

struct AdapterReport {
  std::string adapter;
  std::string component;
  std::string peer_component;
  sync::ProfCounters counters;
  /// Fraction of the component's wall time spent waiting on this peer.
  double wait_fraction = 0.0;
};

struct ComponentReport {
  std::string name;
  std::uint64_t busy_cycles = 0;
  std::uint64_t wall_cycles = 0;
  std::uint64_t events = 0;
  /// Fraction of cycles NOT spent in adapter rx/tx/sync (paper: "efficiency").
  double efficiency = 1.0;
  /// Fraction of wall time waiting for peers (drives the WTPG node color).
  double waiting_fraction = 0.0;
  /// Compute load in cycles per simulated second (projection input).
  double load_cycles_per_simsec = 0.0;
  std::vector<AdapterReport> adapters;
};

struct ProfileReport {
  runtime::RunMode mode = runtime::RunMode::kCoscheduled;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Measured simulation speed (simulated seconds per wall second).
  double sim_speed = 0.0;
  std::vector<ComponentReport> components;

  const ComponentReport* find(const std::string& name) const;
};

/// Build a report from a run's adapter counter totals. Threaded and pooled
/// runs divide wait and overhead cycles by each component's wall cycles;
/// coscheduled runs derive waiting from load imbalance.
ProfileReport build_report(const runtime::RunStats& stats);

/// Projected wall-clock seconds for running this simulation on a machine
/// described by `cfg`, derived from per-component loads:
///   wall = max( max_i L_i, sum_i L_i / cores ),  L_i incl. channel costs.
double project_wall_seconds(const ProfileReport& report, const PerfModelConfig& cfg);

/// Projected simulation speed (simulated seconds per wall second).
double project_sim_speed(const ProfileReport& report, const PerfModelConfig& cfg);

/// Human-readable profile summary table.
std::string format_report(const ProfileReport& report);

}  // namespace splitsim::profiler
