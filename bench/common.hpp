// Shared helpers for the per-figure bench binaries: flag parsing, headers,
// and quick/full sizing. Every bench defaults to a "quick" configuration
// that finishes in well under a minute; pass --full for paper-scale runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "orch/instantiation.hpp"
#include "util/time.hpp"

namespace benchutil {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool has(const std::string& flag) const {
    for (const auto& a : args_) {
      if (a == flag || a.rfind(flag + "=", 0) == 0) return true;
    }
    return false;
  }

  std::string get(const std::string& flag, const std::string& def = "") const {
    std::string prefix = flag + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return def;
  }

  double get_double(const std::string& flag, double def) const {
    std::string v = get(flag);
    return v.empty() ? def : std::atof(v.c_str());
  }

  int get_int(const std::string& flag, int def) const {
    std::string v = get(flag);
    return v.empty() ? def : std::atoi(v.c_str());
  }

  bool full() const { return has("--full"); }

 private:
  std::vector<std::string> args_;
};

// ---- shared scenario flags ----------------------------------------------
//
// Every scenario bench exposes the same execution surface the orch layer
// provides: --run-mode=threaded|coscheduled|pooled, --pool-workers=N,
// --partition=s|ac|crN|rs|pn, --transport=inproc|shm|socket, --processes,
// and --duration=MS. parse_exec folds everything but the duration into an
// orch::ExecSpec ready to drop into a ScenarioConfig. A non-inproc
// transport runs the partition-cut channels over real shm segments or
// localhost sockets (forcing threaded mode); --processes forks one OS
// process per partition group (see orch/proc.hpp).

inline splitsim::orch::ExecSpec parse_exec(const Args& args,
                                           splitsim::orch::ExecSpec def = {}) {
  std::string mode = args.get("--run-mode");
  if (mode == "threaded") {
    def.run_mode = splitsim::runtime::RunMode::kThreaded;
  } else if (mode == "coscheduled") {
    def.run_mode = splitsim::runtime::RunMode::kCoscheduled;
  } else if (mode == "pooled") {
    def.run_mode = splitsim::runtime::RunMode::kPooled;
  } else if (!mode.empty()) {
    std::fprintf(stderr, "unknown --run-mode=%s (threaded|coscheduled|pooled)\n",
                 mode.c_str());
    std::exit(2);
  }
  def.pool_workers =
      static_cast<unsigned>(args.get_int("--pool-workers", static_cast<int>(def.pool_workers)));
  def.partition = args.get("--partition", def.partition);
  def.transport = args.get("--transport", def.transport);
  if (def.transport != "inproc" && def.transport != "shm" && def.transport != "socket") {
    std::fprintf(stderr, "unknown --transport=%s (inproc|shm|socket)\n",
                 def.transport.c_str());
    std::exit(2);
  }
  if (args.has("--processes")) def.processes = true;
  return def;
}

/// --duration=MS (milliseconds); returns `def` when absent.
inline splitsim::SimTime parse_duration(const Args& args, splitsim::SimTime def) {
  double ms = args.get_double("--duration", -1.0);
  return ms >= 0 ? splitsim::from_ms(ms) : def;
}

// ---- shared fault-injection flags ----------------------------------------
//
// Robustness experiments (orch/fault.hpp) share one flag surface:
//   --fault-drop=P      per-message drop probability on every channel
//   --fault-dup=P       per-message duplication probability
//   --fault-delay-ns=N  extra latency for delayed messages
//   --fault-delay-p=P   probability a message is delayed (default 0.01
//                       when --fault-delay-ns is given)
//   --fault-seed=S      experiment fault seed (default 1)
// The resulting FaultSpec is empty unless at least one fault flag is set.

inline splitsim::orch::FaultSpec parse_faults(const Args& args) {
  splitsim::orch::FaultSpec spec;
  spec.seed = static_cast<std::uint64_t>(args.get_int("--fault-seed", 1));
  splitsim::orch::ChannelFaultRule rule;  // empty substring = every channel
  rule.cfg.drop_prob = args.get_double("--fault-drop", 0.0);
  rule.cfg.dup_prob = args.get_double("--fault-dup", 0.0);
  rule.cfg.delay = splitsim::from_ns(args.get_double("--fault-delay-ns", 0.0));
  rule.cfg.delay_prob =
      args.get_double("--fault-delay-p", rule.cfg.delay > 0 ? 0.01 : 0.0);
  if (rule.cfg.any()) spec.channels.push_back(rule);
  return spec;
}

// ---- shared observability flags ------------------------------------------
//
// Every scenario bench also shares the obs surface:
//   --out-dir=DIR     artifact directory (the run record summary.json, dot,
//                     trace/metrics JSON); defaults to ProfileSpec's
//                     "splitsim-out", where only requested obs artifacts land
//   --trace[=PATH]    record a Chrome trace (openable in Perfetto)
//   --metrics[=MS]    periodic metrics snapshots (default period 250 ms)
//   --progress[=MS]   live progress lines on stderr (default period 1000 ms)

inline splitsim::orch::ProfileSpec parse_profile(const Args& args,
                                                 splitsim::orch::ProfileSpec def = {}) {
  def.log_dir = args.get("--out-dir", def.log_dir);
  if (args.has("--trace")) {
    def.trace = true;
    def.trace_out = args.get("--trace", def.trace_out);
  }
  if (args.has("--metrics")) {
    def.metrics_period_ms = static_cast<std::uint64_t>(args.get_int("--metrics", 250));
    if (def.metrics_period_ms == 0) def.metrics_period_ms = 250;
  }
  if (args.has("--progress")) {
    def.progress_period_ms = static_cast<std::uint64_t>(args.get_int("--progress", 1000));
    if (def.progress_period_ms == 0) def.progress_period_ms = 1000;
  }
  return def;
}

inline void header(const std::string& title, const std::string& paper_ref, bool full) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("mode: %s (pass --full for paper-scale)\n", full ? "FULL" : "quick");
  std::printf("================================================================\n");
}

inline void check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "REPRODUCED" : "DIVERGES  ", claim.c_str());
}

// ---- machine-readable micro-bench harness --------------------------------
//
// The micro benches (bench_micro_des, bench_micro_channels) are plain
// binaries that time batches of operations and emit a JSON file the CI
// bench-smoke job uploads as an artifact. Operations run in batches of
// kSampleBatch with one steady_clock read per batch: the throughput number
// covers the whole run, and p50/p99 per-op latency is taken over the
// per-batch means (a single clock read per op would dominate sub-50ns ops).

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct BenchResult {
  std::string name;
  std::uint64_t ops = 0;
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  /// Extra numeric fields to emit verbatim (e.g. speedup_vs_reference).
  std::vector<std::pair<std::string, double>> extra;
};

/// Run `total` iterations of `op` and measure throughput + batch-sampled
/// per-op percentiles. `ops_per_iter` scales the op count when one call to
/// `op` processes several logical operations (e.g. a batched drain).
template <typename Op>
BenchResult run_bench(std::string name, std::uint64_t total, Op&& op,
                      std::uint64_t ops_per_iter = 1) {
  constexpr std::uint64_t kSampleBatch = 256;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(total / kSampleBatch) + 1);
  std::uint64_t done = 0;
  const std::uint64_t t0 = now_ns();
  while (done < total) {
    const std::uint64_t n = std::min(kSampleBatch, total - done);
    const std::uint64_t b0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) op();
    const std::uint64_t b1 = now_ns();
    samples.push_back(static_cast<double>(b1 - b0) /
                      static_cast<double>(n * ops_per_iter));
    done += n;
  }
  const std::uint64_t t1 = now_ns();
  BenchResult r;
  r.name = std::move(name);
  r.ops = done * ops_per_iter;
  const double secs = static_cast<double>(t1 - t0) * 1e-9;
  r.ops_per_sec = secs > 0 ? static_cast<double>(r.ops) / secs : 0;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double p) {
    if (samples.empty()) return 0.0;
    return samples[static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1))];
  };
  r.p50_ns = pct(0.50);
  r.p99_ns = pct(0.99);
  std::printf("  %-36s %14.0f %s/s   p50 %8.2f ns/op   p99 %8.2f ns/op\n", r.name.c_str(),
              r.ops_per_sec, "ops", r.p50_ns, r.p99_ns);
  return r;
}

/// Emit `results` as {"benchmarks": [...]} with the given throughput key
/// (events_per_sec / msgs_per_sec).
inline void write_json(const std::string& path, const std::string& rate_key,
                       const std::vector<BenchResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %llu, \"%s\": %.1f, "
                 "\"p50_ns_per_op\": %.2f, \"p99_ns_per_op\": %.2f",
                 r.name.c_str(), static_cast<unsigned long long>(r.ops), rate_key.c_str(),
                 r.ops_per_sec, r.p50_ns, r.p99_ns);
    for (const auto& [key, value] : r.extra) {
      std::fprintf(f, ", \"%s\": %.3f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace benchutil
