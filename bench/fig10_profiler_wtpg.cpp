// Fig. 10 ("part_prof"): SplitSim wait-time profile graphs for the `ac`
// and `cr3` partition strategies of the Fig. 9 experiment (qemu hosts).
//
// Paper claims reproduced here:
//  * under the coarse `ac` partition, the per-aggregation-block network
//    processes are the bottleneck (red), not the core switch process or
//    the qemu/NIC instances
//  * under the finer `cr3` partition the bottleneck shifts towards the
//    detailed host instances
// The graphs are emitted as GraphViz DOT files under the profile artifact
// directory (--out-dir, default splitsim-out/) and as text tables on stdout.
#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "dc_experiment.hpp"
#include "profiler/wtpg.hpp"
#include "util/table.hpp"

using namespace splitsim;

namespace {

/// Least-waiting (most bottlenecked) component name in a report.
std::string bottleneck_of(const profiler::ProfileReport& rep) {
  std::string name;
  double least = 2.0;
  for (const auto& c : rep.components) {
    if (c.waiting_fraction < least) {
      least = c.waiting_fraction;
      name = c.name;
    }
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  benchutil::header("Fig 10: wait-time profile graphs for ac and cr3 partitions",
                    "paper Fig. 10 (§4.6 'Profiling to Locate Bottlenecks')", args.full());

  benchdc::DcExperimentConfig base;
  base.profile = benchutil::parse_profile(args);
  if (args.full()) {
    base.n_agg = 4;
    base.racks_per_agg = 6;
    base.hosts_per_rack = 50;
    base.bg_fraction = 0.25;
    base.bg_local_fraction = 0.8;
    base.duration = from_ms(50.0);
  } else {
    base.n_agg = 2;
    base.racks_per_agg = 3;
    base.hosts_per_rack = 8;
    base.duration = from_ms(30.0);
  }
  // --run-mode / --transport / --processes: profile the same experiment
  // under a swapped transport or forked partition processes.
  base.exec = benchutil::parse_exec(args, base.exec);

  // The paper's cr3 splits 24 racks into 8 processes with the fabric
  // switches in one more; on the quick-sized 6-rack topology the
  // proportionally equivalent fine partition is rs.
  std::string fine = args.full() ? "cr3" : "rs";
  std::string bottleneck_ac, bottleneck_cr3;
  for (const std::string& strat : {std::string("ac"), fine}) {
    benchdc::DcExperimentConfig cfg = base;
    cfg.strategy = strat;
    auto r = benchdc::run_dc_experiment(cfg);

    std::printf("--- strategy %s (%d network processes) ---\n", strat.c_str(), r.partitions);
    std::printf("%s\n", profiler::format_wtpg(r.report).c_str());

    auto dot = profiler::build_wtpg(r.report, "wtpg_" + strat);
    std::string dir = cfg.profile.artifact_dir();
    std::filesystem::create_directories(dir);
    std::string path = dir + "/wtpg_" + strat + ".dot";
    std::ofstream out(path);
    out << dot.to_dot();
    std::printf("DOT graph written to %s\n\n", path.c_str());

    if (strat == "ac") {
      bottleneck_ac = bottleneck_of(r.report);
    } else {
      bottleneck_cr3 = bottleneck_of(r.report);
    }
  }

  std::printf("bottleneck under ac : %s\n", bottleneck_ac.c_str());
  std::printf("bottleneck under %s: %s\n\n", fine.c_str(), bottleneck_cr3.c_str());

  benchutil::check(bottleneck_ac.rfind("net.", 0) == 0,
                   "ac: a network partition (rack-carrying ns-3 process) is the bottleneck");
  benchutil::check(bottleneck_cr3.rfind("host.", 0) == 0 ||
                       bottleneck_cr3.rfind("nic.", 0) == 0,
                   fine + ": the bottleneck shifts towards the detailed host instances");
  return 0;
}
