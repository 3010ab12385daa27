// Typed runtime failure for SplitSim simulations.
//
// A production-scale run multiplexes dozens of component simulators over a
// process for hours; the one thing the runtime must never do is turn a
// single misbehaving component into a silent hang or a process-killing
// std::terminate. Every failure mode in every run mode — a model exception
// escaping a handler, a synchronization deadlock, a watchdog timeout —
// surfaces as a SimulationError carrying *which* component failed, at what
// simulation time, and why. The partially-completed run's statistics are
// attached so a long run's profile is not lost with the exception.
#pragma once

#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/time.hpp"

namespace splitsim::runtime {

struct RunStats;

/// What class of failure ended the run.
enum class ErrorKind {
  kModelError,  ///< an exception escaped a component's model code
  kDeadlock,    ///< synchronization deadlock (no runnable component)
  kTransport,   ///< channel transport failure: handshake/wire-format
                ///< mismatch, peer process death before FIN, broken socket
  kCheckpoint,  ///< checkpoint/restart failure: unreadable or corrupted
                ///< snapshot, incompatible resume config, or a resumed
                ///< replay diverging from the snapshot's recorded state
  kSyncViolation,  ///< conservative-sync promise broken: data sent at or
                   ///< below an emitted SYNC, or received below the batch
                   ///< time (sync::SyncViolation); checked in every build
};

std::string to_string(ErrorKind k);

/// A simulation run failed. what() is a one-line diagnostic of the form
/// "<kind> in component '<name>' at sim time <t> ns: <cause>".
class SimulationError : public std::runtime_error {
 public:
  SimulationError(ErrorKind kind, std::string component, SimTime sim_time, std::string cause);

  ErrorKind kind() const { return kind_; }
  /// Name of the failing component ("" when no single component is at
  /// fault, e.g. a failure in the runner itself).
  const std::string& component() const { return component_; }
  /// Simulation time the failing component had reached.
  SimTime sim_time() const { return sim_time_; }
  /// The underlying cause (the original exception's message, or the
  /// deadlock diagnostic).
  const std::string& cause() const { return cause_; }

  /// Partial statistics of the failed run (outcome == RunOutcome::kError),
  /// attached by Simulation::run before throwing; null when the failure
  /// happened before any stats could be collected. Shared so the exception
  /// stays cheaply copyable.
  const std::shared_ptr<const RunStats>& stats() const { return stats_; }
  void attach_stats(std::shared_ptr<const RunStats> s) { stats_ = std::move(s); }

 private:
  ErrorKind kind_;
  std::string component_;
  SimTime sim_time_ = 0;
  std::string cause_;
  std::shared_ptr<const RunStats> stats_;
};

/// The one mapping from an exception that escaped a run to a
/// SimulationError, attributed to `component` at `sim_time` ("" and 0 when
/// no single component is at fault). A SimulationError passes through
/// unchanged; sync::SyncViolation becomes kSyncViolation,
/// sync::TransportError kTransport, anything else kModelError.
SimulationError to_simulation_error(std::exception_ptr e, const std::string& component = {},
                                    SimTime sim_time = 0);

}  // namespace splitsim::runtime
