// The run record: summary.json, one JSON object unifying the raw RunStats,
// the post-processed profiler::ProfileReport, the final metrics snapshot,
// and (when tracing ran) the trace recorder stats. It is the one serialized
// form of RunStats: scripts consume it instead of scraping stdout tables,
// and read_run_stats parses it back (the multi-process parent merges its
// children's records this way).
//
// Sits at the top of the obs headers' dependency stack: unlike trace/
// metrics/progress (which runtime includes), this header includes runtime
// and profiler, so only the orchestration layer and benches should use it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "profiler/profiler.hpp"
#include "runtime/runner.hpp"

namespace splitsim::obs {

/// Per-process row of a multi-process run's merged summary, built by the
/// run_multiprocess parent from each child's proc-<rank>/summary.json.
struct ProcessSummary {
  std::string name;     ///< process-group name
  std::string outcome;  ///< "completed" / "error" / "missing"
  std::uint64_t digest = 0;  ///< per-process EventDigest::value()
  double wall_seconds = 0.0;
  double sim_speed = 0.0;  ///< sim seconds per wall second
  std::uint64_t trunk_rx_msgs = 0;  ///< data messages received over wire transports
  sync::WireStats wire;             ///< summed over the process's wire transports
};

/// Checkpoint/restart record for the summary (filled by the orchestration
/// layer from the run's ckpt::Collector and CkptSpec).
struct CkptSummary {
  bool enabled = false;
  std::string dir;
  std::uint64_t snapshots_written = 0;
  double last_boundary_ms = 0.0;
  bool resumed = false;
  double resume_boundary_ms = 0.0;
  /// True when the replay crossed the resume boundary and matched the
  /// snapshot's recorded state (always true on a completed resumed run —
  /// divergence fails the run instead).
  bool resume_verified = false;
};

struct SummaryInputs {
  const runtime::RunStats* stats = nullptr;
  const profiler::ProfileReport* report = nullptr;
  const MetricsSnapshot* metrics = nullptr;  ///< final snapshot (optional)
  bool traced = false;                       ///< include trace_stats()
  const CkptSummary* ckpt = nullptr;         ///< checkpoint/restore record

  // ---- multi-process runs (the parent's merged summary) ----------------
  const std::vector<ProcessSummary>* processes = nullptr;
  const MetricsSnapshot* fleet = nullptr;         ///< final fleet snapshot
  const MergeResult* merge = nullptr;             ///< trace-merge stats
  const CriticalPathReport* critical_path = nullptr;
};

std::string summary_json(const SummaryInputs& in);

/// Write summary_json() to `path`, creating parent directories.
void write_summary_json(const std::string& path, const SummaryInputs& in);

/// Parse the `run` object of a summary.json back into RunStats: every
/// field the multi-process parent and profiler::build_report read, with
/// integers (simulated ps, cycles, counters, digest folds) exact. Never
/// throws. A missing file gives nullopt. An unreadable one (truncated
/// JSON, a non-hex digest, an unknown error kind, no `run` object) gives
/// an error record: outcome kError, kind kTransport, and a cause that
/// starts with "corrupt-report" and names `path`.
std::optional<runtime::RunStats> read_run_stats(const std::string& path);

}  // namespace splitsim::obs
