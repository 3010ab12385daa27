// splitsim_launch: run a registered scenario as multiple OS processes (or
// with swapped cross-channel transports) and check digest parity against
// the single-process threaded reference run.
//
//   splitsim_launch --scenario kv-small --processes --transport shm \
//       --out-dir /tmp/run --verify-digest
//
// Exit codes: 0 success, 1 run/usage failure, 2 digest or component
// mismatch.
//
// The launcher is the CI `proc-smoke` entry point: it executes the same
// scenario once in-process (threaded, heap rings) and once under the
// requested deployment (forked process groups over shm segments or
// localhost socket trunks, or a single-process transport swap), then
// requires the EventDigests to be bit-identical and the two run records
// (summary.json) to list exactly the same components. --expect-peer-death
// flips the contract: a child is killed at a given simulated time
// (SPLITSIM_DEBUG_KILL) and the launcher asserts the failure surfaces as a
// typed transport error while the surviving process still writes its
// artifacts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "mcheck/scenarios.hpp"
#include "obs/summary.hpp"
#include "runtime/error.hpp"
#include "sync/digest.hpp"

using namespace splitsim;

namespace {

struct Options {
  std::string scenario = "kv-small";
  std::string partition;         // named partition strategy ("" = scenario default)
  std::string transport = "inproc";
  bool processes = false;
  bool verify_digest = false;
  bool expect_peer_death = false;
  std::string kill_after;        // "<rank>:<sim_us>" for SPLITSIM_DEBUG_KILL
  std::string out_dir = "splitsim-launch-out";
  double duration_ms = 0.0;      // 0 = scenario default
  bool trace = false;            // record per-process shards, merge in parent
  std::uint64_t metrics_ms = 0;  // metrics snapshot period (0 = off)
  std::uint64_t progress_ms = 0; // aggregated progress line period (0 = off)
  double checkpoint_every_ms = 0.0;  // boundary snapshot period (0 = off)
  std::string checkpoint_dir;        // "" = <out-dir>/ckpt
  std::string resume_from;           // snapshot file or directory ("" = fresh)
  std::string inject_throw;          // "COMP:MS" killer fault for resume tests
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: splitsim_launch --scenario kv-small|clocksync-small|dcdb-small\n"
      "  [--partition NAME] [--transport inproc|shm|socket] [--processes]\n"
      "  [--duration-ms N] [--out-dir DIR] [--verify-digest]\n"
      "  [--trace] [--metrics MS] [--progress MS]\n"
      "  [--checkpoint-every MS] [--checkpoint-dir DIR] [--resume-from PATH]\n"
      "  [--inject-throw COMP:MS]\n"
      "  [--expect-peer-death --kill-after RANK:US]\n"
      "\n"
      "Checkpointing: --checkpoint-every writes boundary snapshots under\n"
      "--checkpoint-dir; --resume-from re-instantiates from the newest\n"
      "complete snapshot and continues (elastically: the resumed run may use\n"
      "a different partition/transport/process count). With --verify-digest\n"
      "the resumed run's digest must match the uninterrupted reference.\n"
      "--inject-throw kills the first run with a deterministic model fault\n"
      "at the given simulated time (a resume strips the killer fault).\n"
      "--kill-after makes process rank RANK exit once its first component\n"
      "reaches US microseconds of simulated time.\n");
  std::exit(code);
}

struct RunOutcome {
  bool completed = false;
  sync::EventDigest digest;
  std::string error;
  runtime::ErrorKind error_kind = runtime::ErrorKind::kModelError;
};

/// One scenario run under the given exec choices; never throws.
/// `with_ckpt` gates the checkpoint/resume/fault flags so the reference run
/// stays a plain uninterrupted run of the same scenario.
template <typename Cfg, typename RunFn>
RunOutcome run_once(Cfg cfg, const Options& opt, const orch::ExecSpec& exec,
                    const std::string& out_dir, bool with_ckpt, RunFn&& run) {
  cfg.exec = exec;
  if (opt.duration_ms > 0) cfg.duration = from_ms(opt.duration_ms);
  cfg.profile.log_dir = out_dir;
  cfg.profile.trace = opt.trace;
  cfg.profile.metrics_period_ms = opt.metrics_ms;
  cfg.profile.progress_period_ms = opt.progress_ms;
  if (with_ckpt) {
    if (opt.checkpoint_every_ms > 0) cfg.ckpt.every = from_ms(opt.checkpoint_every_ms);
    cfg.ckpt.dir = opt.checkpoint_dir;
    cfg.ckpt.resume_from = opt.resume_from;
    if (!opt.inject_throw.empty()) {
      auto colon = opt.inject_throw.rfind(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 >= opt.inject_throw.size()) {
        std::fprintf(stderr, "splitsim_launch: --inject-throw wants COMP:MS, got '%s'\n",
                     opt.inject_throw.c_str());
        std::exit(1);
      }
      orch::ThrowFaultRule rule;
      rule.component = opt.inject_throw.substr(0, colon);
      rule.at = from_ms(std::stod(opt.inject_throw.substr(colon + 1)));
      rule.message = "injected kill for checkpoint/resume";
      cfg.faults.throws.push_back(rule);
    }
  }
  RunOutcome out;
  try {
    auto res = run(cfg);
    out.completed = true;
    out.digest = res.digest;
  } catch (const runtime::SimulationError& e) {
    out.error = e.what();
    out.error_kind = e.kind();
    if (e.stats() != nullptr) out.digest = e.stats()->digest;
  }
  return out;
}

RunOutcome run_scenario(const Options& opt, const orch::ExecSpec& exec,
                        const std::string& out_dir, bool with_ckpt) {
  if (opt.scenario == "kv-small") {
    return run_once(mcheck::kv_small_config(), opt, exec, out_dir, with_ckpt,
                    [](const kv::ScenarioConfig& c) { return kv::run_kv_scenario(c); });
  }
  if (opt.scenario == "clocksync-small") {
    return run_once(mcheck::clocksync_small_config(), opt, exec, out_dir, with_ckpt,
                    [](const clocksync::ClockSyncScenarioConfig& c) {
                      return clocksync::run_clocksync_scenario(c);
                    });
  }
  if (opt.scenario == "dcdb-small") {
    return run_once(mcheck::dcdb_small_config(), opt, exec, out_dir, with_ckpt,
                    [](const dcdb::DcdbScenarioConfig& c) { return dcdb::run_dcdb_scenario(c); });
  }
  std::fprintf(stderr, "splitsim_launch: unknown scenario '%s'\n", opt.scenario.c_str());
  std::exit(1);
}

/// Sorted component names of the run record a run left in `out_dir`
/// (empty when it left none).
std::vector<std::string> recorded_components(const std::string& out_dir) {
  std::vector<std::string> names;
  if (auto rs = obs::read_run_stats(out_dir + "/summary.json")) {
    for (const auto& c : rs->components) names.push_back(c.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void print_digest(const char* label, const sync::EventDigest& d) {
  std::printf("%s: digest xor=%016llx sum=%016llx count=%llu\n", label,
              static_cast<unsigned long long>(d.fold_xor),
              static_cast<unsigned long long>(d.fold_sum),
              static_cast<unsigned long long>(d.count));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "splitsim_launch: %s requires a value\n", flag);
        usage(1);
      }
      return argv[++i];
    };
    if (a == "--scenario") opt.scenario = need("--scenario");
    else if (a == "--partition") opt.partition = need("--partition");
    else if (a == "--transport") opt.transport = need("--transport");
    else if (a == "--processes") opt.processes = true;
    else if (a == "--verify-digest") opt.verify_digest = true;
    else if (a == "--expect-peer-death") opt.expect_peer_death = true;
    else if (a == "--kill-after") opt.kill_after = need("--kill-after");
    else if (a == "--out-dir") opt.out_dir = need("--out-dir");
    else if (a == "--duration-ms") opt.duration_ms = std::stod(need("--duration-ms"));
    else if (a == "--trace") opt.trace = true;
    else if (a == "--metrics") opt.metrics_ms = std::stoull(need("--metrics"));
    else if (a == "--progress") opt.progress_ms = std::stoull(need("--progress"));
    else if (a == "--checkpoint-every")
      opt.checkpoint_every_ms = std::stod(need("--checkpoint-every"));
    else if (a == "--checkpoint-dir") opt.checkpoint_dir = need("--checkpoint-dir");
    else if (a == "--resume-from") opt.resume_from = need("--resume-from");
    else if (a == "--inject-throw") opt.inject_throw = need("--inject-throw");
    else if (a == "--help" || a == "-h") usage(0);
    else {
      std::fprintf(stderr, "splitsim_launch: unknown flag '%s'\n", a.c_str());
      usage(1);
    }
  }

  orch::ExecSpec exec;
  exec.run_mode = runtime::RunMode::kThreaded;
  exec.partition = opt.partition;
  exec.transport = opt.transport;
  exec.processes = opt.processes;

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  if (opt.expect_peer_death) {
    if (opt.kill_after.empty()) {
      std::fprintf(stderr, "splitsim_launch: --expect-peer-death needs --kill-after\n");
      return 1;
    }
    setenv("SPLITSIM_DEBUG_KILL", opt.kill_after.c_str(), 1);
    RunOutcome out = run_scenario(opt, exec, opt.out_dir, /*with_ckpt=*/true);
    if (out.completed) {
      std::fprintf(stderr, "FAIL: run completed although rank %s was killed\n",
                   opt.kill_after.c_str());
      return 1;
    }
    if (out.error_kind != runtime::ErrorKind::kTransport) {
      std::fprintf(stderr, "FAIL: expected a transport error, got: %s\n",
                   out.error.c_str());
      return 1;
    }
    std::printf("peer death surfaced as: %s\n", out.error.c_str());
    // Teardown-ordering check: the merged summary was still written from
    // the salvaged partial stats.
    if (!std::filesystem::exists(opt.out_dir + "/summary.json")) {
      std::fprintf(stderr, "FAIL: merged summary.json missing after peer death\n");
      return 1;
    }
    std::printf("OK: transport failure attributed, artifacts salvaged\n");
    return 0;
  }

  RunOutcome target = run_scenario(opt, exec, opt.out_dir, /*with_ckpt=*/true);
  if (!target.completed) {
    if (!opt.inject_throw.empty() &&
        target.error_kind == runtime::ErrorKind::kModelError) {
      // The injected killer fault is the expected ending of this leg; its
      // point is the snapshots it leaves behind for a --resume-from run.
      std::printf("injected fault surfaced as: %s\n", target.error.c_str());
      const std::string ckpt_dir =
          opt.checkpoint_dir.empty() ? opt.out_dir + "/ckpt" : opt.checkpoint_dir;
      bool have_snapshot = false;
      std::error_code dec;
      for (const auto& e : std::filesystem::directory_iterator(ckpt_dir, dec)) {
        if (e.path().extension() == ".ckpt") have_snapshot = true;
      }
      if (dec || !have_snapshot) {
        std::fprintf(stderr, "FAIL: no snapshot in '%s' to resume from\n",
                     ckpt_dir.c_str());
        return 1;
      }
      std::printf("OK: fault injected, snapshots available under %s\n", ckpt_dir.c_str());
      return 0;
    }
    std::fprintf(stderr, "FAIL: run errored: %s\n", target.error.c_str());
    return 1;
  }
  print_digest("run", target.digest);

  if (opt.verify_digest) {
    orch::ExecSpec ref = exec;
    ref.transport = "inproc";
    ref.processes = false;
    // The reference is the same scenario uninterrupted: no checkpointing,
    // no resume, no injected fault — what the checkpointed/resumed run must
    // reproduce bit-identically.
    RunOutcome reference =
        run_scenario(opt, ref, opt.out_dir + "/reference", /*with_ckpt=*/false);
    if (!reference.completed) {
      std::fprintf(stderr, "FAIL: reference run errored: %s\n", reference.error.c_str());
      return 1;
    }
    print_digest("reference (threaded, inproc)", reference.digest);
    if (!(target.digest == reference.digest)) {
      std::fprintf(stderr, "FAIL: digest mismatch between transports\n");
      return 2;
    }
    const std::vector<std::string> got = recorded_components(opt.out_dir);
    const std::vector<std::string> want = recorded_components(opt.out_dir + "/reference");
    if (want.empty() || got != want) {
      std::fprintf(stderr,
                   "FAIL: run record lists %zu components, the reference run's lists %zu "
                   "(or their names differ)\n",
                   got.size(), want.size());
      return 2;
    }
    std::printf("OK: digests bit-identical, run records list the same %zu components\n",
                want.size());
  }
  return 0;
}
