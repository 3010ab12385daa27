// Fig. 9 ("ns3-part-strat-perf"): simulation speed for different network
// partition strategies (s, ac, crN, rs) on the background datacenter
// topology, with qemu and with gem5 host pairs.
//
// Paper claims reproduced here:
//  * partition strategies differ significantly in simulation speed, and
//    qemu vs gem5 hosts shift which strategy is best
//  * past a point, adding more processes/cores *lowers* simulation speed
//    again (synchronization overhead dominates)
#include "common.hpp"
#include "dc_experiment.hpp"
#include "util/table.hpp"

using namespace splitsim;

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  benchutil::header("Fig 9: partition strategies, simulation speed, qemu vs gem5",
                    "paper Fig. 9 (§4.6 profiler section)", args.full());

  std::vector<std::string> strategies = {"s", "ac", "cr3", "cr1", "rs"};
  benchdc::DcExperimentConfig base;
  if (args.full()) {
    base.n_agg = 4;
    base.racks_per_agg = 6;
    base.hosts_per_rack = 50;  // the paper's 1200-host topology
    base.bg_fraction = 0.25;
    base.duration = from_ms(50.0);
  } else {
    base.n_agg = 2;
    base.racks_per_agg = 3;
    base.hosts_per_rack = 8;
    base.duration = from_ms(30.0);
  }
  // --run-mode / --transport / --processes: run the sweep under a different
  // execution shape (e.g. real shm segments or forked partition processes
  // instead of the default coscheduled load measurement).
  base.exec = benchutil::parse_exec(args, base.exec);

  Table t({"strategy", "host sim", "net procs", "cores used", "sim speed (sim-s/h)",
           "rel to s"});
  double speed_s[2] = {0, 0};
  double best[2] = {0, 0};
  double finest[2] = {0, 0};
  double cr1_speed[2] = {0, 0};
  double cr3_speed[2] = {0, 0};
  int hm = 0;
  for (auto model : {hostsim::CpuModel::kQemu, hostsim::CpuModel::kGem5}) {
    for (const auto& strat : strategies) {
      benchdc::DcExperimentConfig cfg = base;
      cfg.strategy = strat;
      cfg.host_model = model;
      auto r = benchdc::run_dc_experiment(cfg);
      double speed = r.projected_sim_speed;
      if (strat == "s") speed_s[hm] = speed;
      best[hm] = std::max(best[hm], speed);
      if (strat == "rs") finest[hm] = speed;
      if (strat == "cr1") cr1_speed[hm] = speed;
      if (strat == "cr3") cr3_speed[hm] = speed;
      t.add_row({strat, model == hostsim::CpuModel::kQemu ? "qemu" : "gem5",
                 std::to_string(r.partitions), std::to_string(r.components),
                 Table::num(speed * 3600.0, 2), Table::num(speed / speed_s[hm], 2)});
    }
    ++hm;
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(sim speed projected for a 48-core machine; cores used = simulator"
              " instances incl. hosts and NICs)\n\n");

  if (args.has("--adaptive")) {
    // partition=auto, the bench-local way: a short calibration run per
    // strategy (the same ranking orch::calibrate_partition uses), then the
    // full-length run under the winner. Checks the calibration quantum is
    // long enough to pick a strategy competitive with the exhaustive sweep.
    // --adaptive-calib-ms=MS sets the quantum (default: an eighth of the run).
    double calib_ms = args.get_double("--adaptive-calib-ms", 0.0);
    SimTime calib = calib_ms > 0 ? from_ms(calib_ms) : base.duration / 8;
    std::string chosen;
    double chosen_calib_speed = 0;
    for (const auto& strat : strategies) {
      benchdc::DcExperimentConfig cfg = base;
      cfg.strategy = strat;
      cfg.duration = calib;
      auto r = benchdc::run_dc_experiment(cfg);
      std::printf("  calibration %-4s  %.2f sim-s/h\n", strat.c_str(),
                  r.projected_sim_speed * 3600.0);
      if (chosen.empty() || r.projected_sim_speed > chosen_calib_speed) {
        chosen = strat;
        chosen_calib_speed = r.projected_sim_speed;
      }
    }
    benchdc::DcExperimentConfig cfg = base;
    cfg.strategy = chosen;
    auto r = benchdc::run_dc_experiment(cfg);
    std::printf("  auto -> %s: %.2f sim-s/h (best static %.2f)\n\n", chosen.c_str(),
                r.projected_sim_speed * 3600.0, best[0] * 3600.0);
    benchutil::check(r.projected_sim_speed >= best[0] * 0.85,
                     "partition=auto calibration picks a near-best strategy");
  }

  benchutil::check(best[0] > speed_s[0] * 1.3,
                   "partitioning improves simulation speed over a single process");
  benchutil::check(finest[0] < best[0] || cr1_speed[0] < cr3_speed[0],
                   "a finer partition underperforms a coarser one (more cores can hurt)");
  benchutil::check(best[1] < best[0],
                   "gem5-host simulations run slower than qemu-host simulations");
  return 0;
}
