// Partition auto-selection vs static partitions (extends the Fig. 9
// experiment).
//
// Runs the skewed background-datacenter topology in *pooled* mode under
// partition=auto (a short pooled calibration run per strategy picks the
// winner) and under every static partition strategy. The full runs are
// timed interleaved: each of --rounds rounds (default 5) runs every static
// strategy and the auto winner once, in an order that alternates between
// rounds, so host load drifting over the bench hits every row alike.
//
// The best and worst static strategies are the rows with the lowest and
// highest median wall time. Claims checked (and gated with --strict for CI),
// each on the median over rounds of auto's speed relative to that row's in
// the same round:
//  * auto reaches >= 0.9x the best static configuration's speed, without
//    being told which strategy wins
//  * auto is >= 1.3x faster than the worst static configuration
//
// --adaptive-calib-ms=MS sets the calibration quantum (default: an eighth
// of the run). Emits BENCH_adaptive.json (uploaded by the CI bench-smoke
// job).
#include <algorithm>

#include "common.hpp"
#include "dc_experiment.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace splitsim;

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
  const int rounds = std::max(1, args.get_int("--rounds", 5));
  const double sim_sec = to_sec(base.duration);
  const std::vector<std::string> strategies = {"s", "ac", "cr3", "cr1", "rs"};

  // Auto: short pooled calibration run per candidate (the same ranking
  // rule orch::calibrate_partition applies for non-coscheduled modes:
  // simulated seconds per wall second); the full run uses the winner.
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

  // Rows 0..n-1 are the static strategies, row n is auto. Even rounds run
  // them in that order, odd rounds in reverse.
  const std::size_t n = strategies.size();
  std::vector<Summary> wall(n + 1);
  std::vector<std::size_t> components(n + 1);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k <= n; ++k) {
      const std::size_t row = round % 2 == 0 ? k : n - k;
      benchdc::DcExperimentConfig cfg = base;
      cfg.strategy = row == n ? chosen : strategies[row];
      auto r = benchdc::run_dc_experiment(cfg);
      wall[row].add(r.stats.wall_seconds);
      components[row] = r.components;
    }
  }
  std::size_t best_row = 0, worst_row = 0;
  for (std::size_t row = 1; row < n; ++row) {
    if (wall[row].median() < wall[best_row].median()) best_row = row;
    if (wall[row].median() > wall[worst_row].median()) worst_row = row;
  }
  // Speed ratio = inverse wall ratio (every row simulates the same time).
  Summary vs_best, vs_worst;
  for (int round = 0; round < rounds; ++round) {
    const double auto_wall = wall[n].samples()[round];
    vs_best.add(wall[best_row].samples()[round] / auto_wall);
    vs_worst.add(wall[worst_row].samples()[round] / auto_wall);
  }

  Table t({"config", "components", "median wall (s)", "speed (sim-s/wall-s)"});
  std::vector<benchutil::BenchResult> out;
  for (std::size_t row = 0; row <= n; ++row) {
    const double speed = sim_sec / wall[row].median();
    const std::string name = row == n ? "auto->" + chosen : strategies[row];
    t.add_row({name, std::to_string(components[row]), Table::num(wall[row].median(), 3),
               Table::num(speed, 4)});
    benchutil::BenchResult br;
    br.name = row == n ? "auto" : "static_" + strategies[row];
    br.ops = components[row];
    br.ops_per_sec = speed;
    br.extra.emplace_back("wall_seconds", wall[row].median());
    out.push_back(br);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("best static: %s, worst static: %s (median wall over %d rounds); calibration "
              "cost %.3f wall-s\n",
              strategies[best_row].c_str(), strategies[worst_row].c_str(), rounds,
              calibration_seconds);
  std::printf("auto / best static per round: median %.3f (min %.3f, max %.3f); auto / worst: "
              "median %.3f\n\n",
              vs_best.median(), vs_best.min(), vs_best.max(), vs_worst.median());

  benchutil::BenchResult& ar = out.back();
  ar.extra.emplace_back("calibration_seconds", calibration_seconds);
  ar.extra.emplace_back("auto_vs_best", vs_best.median());
  ar.extra.emplace_back("auto_vs_worst", vs_worst.median());
  benchutil::write_json(args.get("--out", "BENCH_adaptive.json"), "sim_s_per_wall_s", out);

  bool near_best = vs_best.median() >= 0.9;
  bool beats_worst = vs_worst.median() >= 1.3;
  benchutil::check(near_best, "partition=auto reaches >= 0.9x the best static speed");
  benchutil::check(beats_worst, "partition=auto is >= 1.3x faster than the worst static");
  if (args.has("--strict") && !(near_best && beats_worst)) return 1;
  return 0;
}
