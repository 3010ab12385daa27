// Live run progress (the "now" pillar of the obs layer): a background
// reporter thread that periodically
//  * emits human-readable progress lines (sim time, wall time, speedup vs
//    real time, ETA to the configured sim end), and
//  * snapshots the metrics registry into an in-memory series for the
//    end-of-run metrics JSON.
//
// The reporter only performs thread-safe reads: the sim-time probe is a
// caller-supplied closure over atomics (each component publishes its
// low-water mark), and Registry::snapshot is relaxed-atomic based. Stopping
// the reporter emits one final progress line and takes one final snapshot,
// so even sub-period runs produce at least one of each.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace splitsim::obs {

/// Obs knobs as the runtime sees them (orch::ProfileSpec maps onto this).
struct ObsConfig {
  bool trace = false;                            ///< record a Chrome trace
  std::uint64_t metrics_period_ms = 0;  ///< 0 = no periodic metrics snapshots
  std::uint64_t progress_period_ms = 0;  ///< 0 = no live progress lines

  /// When set, replaces the progress line emission entirely (no tty write):
  /// multi-process children route ticks to the parent's control channel
  /// through this instead of spamming the inherited stderr.
  std::function<void(SimTime sim_now, double wall_seconds)> on_progress;
  /// Invoked (outside the reporter lock) with each periodic and final
  /// metrics snapshot; children forward these over the control channel.
  std::function<void(SimTime sim_now, double wall_seconds, const MetricsSnapshot&)>
      on_snapshot;

  bool any() const { return trace || metrics_period_ms || progress_period_ms; }
  bool live() const { return metrics_period_ms || progress_period_ms; }
};

struct ProgressConfig {
  std::uint64_t progress_period_ms = 0;  ///< 0 disables progress lines
  std::uint64_t metrics_period_ms = 0;   ///< 0 disables periodic snapshots
  SimTime sim_end = 0;                   ///< target sim time (for ETA)
  std::function<SimTime()> sim_now;      ///< thread-safe sim-time probe
  Registry* registry = nullptr;          ///< snapshot source (may be null)
  /// Progress line sink; defaults to stderr when empty.
  std::function<void(const std::string&)> sink;
  /// When set, progress ticks call this INSTEAD of formatting/sinking a
  /// line (see ObsConfig::on_progress).
  std::function<void(SimTime sim_now, double wall_seconds)> on_progress;
  /// Called with every snapshot (periodic and final) after it is appended
  /// to the series; runs outside the reporter lock.
  std::function<void(SimTime sim_now, double wall_seconds, const MetricsSnapshot&)>
      on_snapshot;
};

/// Format one progress line ("sim 12.0ms | wall 1.4s | 0.0086x | eta 115s").
std::string format_progress(SimTime sim_now, SimTime sim_end, double wall_seconds);

class Reporter {
 public:
  Reporter() = default;
  ~Reporter() { stop(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Launch the reporter thread. No-op when both periods are zero.
  void start(ProgressConfig cfg);

  /// Join the thread (idempotent); emits a final progress line and takes a
  /// final metrics snapshot so short runs still produce output.
  void stop();

  bool running() const { return thread_.joinable(); }

  /// Snapshot series collected so far (moves out; call after stop()).
  std::vector<MetricsSnapshot> take_series();

  std::uint64_t progress_lines() const { return lines_; }

 private:
  void run();
  void emit_progress(double wall_seconds);

  ProgressConfig cfg_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::vector<MetricsSnapshot> series_;
  std::uint64_t lines_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace splitsim::obs
