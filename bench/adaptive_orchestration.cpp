// Partition auto-selection vs static partitions (extends the Fig. 9
// experiment).
//
// Runs the skewed background-datacenter topology in *pooled* mode under
// every static partition strategy, then under partition=auto: a short
// pooled calibration run per strategy, and the full run under the winner.
//
// Claims checked (and gated with --strict for CI):
//  * auto reaches >= 0.9x the best static configuration's speed, without
//    being told which strategy wins
//  * auto is >= 1.3x faster than the worst static configuration
//
// --adaptive-calib-ms=MS sets the calibration quantum (default: an eighth
// of the run). Emits BENCH_adaptive.json (uploaded by the CI bench-smoke
// job).
#include "common.hpp"
#include "dc_experiment.hpp"
#include "util/table.hpp"

using namespace splitsim;

namespace {

/// Best-of-`repeat` wall time for one configuration (min wall = least
/// scheduler noise; sim results are identical across repeats).
benchdc::DcExperimentResult run_best_of(const benchdc::DcExperimentConfig& cfg,
                                        int repeat) {
  benchdc::DcExperimentResult best;
  for (int i = 0; i < repeat; ++i) {
    auto r = benchdc::run_dc_experiment(cfg);
    if (i == 0 || r.stats.wall_seconds < best.stats.wall_seconds) best = std::move(r);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  benchutil::header("Partition auto-selection vs static partitions",
                    "builds on paper Fig. 9", args.full());

  benchdc::DcExperimentConfig base;
  if (args.full()) {
    base.n_agg = 4;
    base.racks_per_agg = 6;
    base.hosts_per_rack = 50;
    base.bg_fraction = 0.25;
    base.duration = from_ms(50.0);
  } else {
    base.n_agg = 2;
    base.racks_per_agg = 3;
    base.hosts_per_rack = 8;
    base.duration = from_ms(20.0);
  }
  // Plant the skew: most background flows cross the fabric, so the network
  // load lands on the core/agg processes and the partition strategies
  // spread it very unevenly across pool workers.
  base.bg_local_fraction = 0.2;
  base.exec = benchutil::parse_exec(args, base.exec);
  base.exec.run_mode = runtime::RunMode::kPooled;
  base.duration = benchutil::parse_duration(args, base.duration);
  const int repeat = args.get_int("--repeat", 2);
  const double sim_sec = to_sec(base.duration);

  std::vector<std::string> strategies = {"s", "ac", "cr3", "cr1", "rs"};
  Table t({"config", "components", "wall (s)", "speed (sim-s/wall-s)", "rel to worst"});
  std::vector<benchutil::BenchResult> out;

  double best_speed = 0, worst_speed = 0;
  std::string best_name, worst_name;
  for (const auto& strat : strategies) {
    benchdc::DcExperimentConfig cfg = base;
    cfg.strategy = strat;
    auto r = run_best_of(cfg, repeat);
    double speed = sim_sec / r.stats.wall_seconds;
    if (best_name.empty() || speed > best_speed) {
      best_speed = speed;
      best_name = strat;
    }
    if (worst_name.empty() || speed < worst_speed) {
      worst_speed = speed;
      worst_name = strat;
    }
    benchutil::BenchResult br;
    br.name = "static_" + strat;
    br.ops = r.components;
    br.ops_per_sec = speed;
    br.extra.emplace_back("wall_seconds", r.stats.wall_seconds);
    out.push_back(br);
    t.add_row({strat, std::to_string(r.components), Table::num(r.stats.wall_seconds, 3),
               Table::num(speed, 4), "-"});
  }

  // Auto: short pooled calibration run per candidate (the same ranking
  // rule orch::calibrate_partition applies for non-coscheduled modes:
  // simulated seconds per wall second), then the full run under the winner.
  double calib_ms = args.get_double("--adaptive-calib-ms", 0.0);
  SimTime calib_q = calib_ms > 0 ? from_ms(calib_ms) : base.duration / 8;
  double calibration_seconds = 0;
  std::string chosen;
  double chosen_calib_speed = 0;
  for (const auto& strat : strategies) {
    benchdc::DcExperimentConfig cfg = base;
    cfg.strategy = strat;
    cfg.duration = calib_q;
    auto r = benchdc::run_dc_experiment(cfg);
    calibration_seconds += r.stats.wall_seconds;
    double speed = to_sec(calib_q) / r.stats.wall_seconds;
    if (chosen.empty() || speed > chosen_calib_speed) {
      chosen = strat;
      chosen_calib_speed = speed;
    }
  }
  benchdc::DcExperimentConfig cfg = base;
  cfg.strategy = chosen;
  auto r = run_best_of(cfg, repeat);
  double auto_speed = sim_sec / r.stats.wall_seconds;
  t.add_row({"auto->" + chosen, std::to_string(r.components),
             Table::num(r.stats.wall_seconds, 3), Table::num(auto_speed, 4),
             Table::num(auto_speed / worst_speed, 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("best static: %s, worst static: %s; calibration cost %.3f wall-s\n\n",
              best_name.c_str(), worst_name.c_str(), calibration_seconds);

  benchutil::BenchResult ar;
  ar.name = "auto";
  ar.ops = r.components;
  ar.ops_per_sec = auto_speed;
  ar.extra.emplace_back("wall_seconds", r.stats.wall_seconds);
  ar.extra.emplace_back("calibration_seconds", calibration_seconds);
  ar.extra.emplace_back("auto_vs_best", auto_speed / best_speed);
  ar.extra.emplace_back("auto_vs_worst", auto_speed / worst_speed);
  out.push_back(ar);
  benchutil::write_json(args.get("--out", "BENCH_adaptive.json"), "sim_s_per_wall_s", out);

  bool near_best = auto_speed >= 0.9 * best_speed;
  bool beats_worst = auto_speed >= 1.3 * worst_speed;
  benchutil::check(near_best, "partition=auto reaches >= 0.9x the best static speed");
  benchutil::check(beats_worst, "partition=auto is >= 1.3x faster than the worst static");
  if (args.has("--strict") && !(near_best && beats_worst)) return 1;
  return 0;
}
