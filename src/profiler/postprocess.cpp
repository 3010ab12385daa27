#include <algorithm>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "profiler/profiler.hpp"
#include "util/table.hpp"

namespace splitsim::profiler {

ProfileReport build_report(const runtime::RunStats& stats) {
  ProfileReport rep;
  rep.mode = stats.mode;
  rep.sim_seconds = stats.sim_seconds();
  rep.wall_seconds = stats.wall_seconds;
  rep.sim_speed = stats.sim_speed();

  // Parallel modes (threaded, pooled) carry real per-component wall-clock
  // windows; coscheduled totals are interleaved on one thread instead.
  const bool threaded = stats.mode != runtime::RunMode::kCoscheduled;

  // Pass 1: per-component raw numbers.
  for (const auto& cs : stats.components) {
    ComponentReport cr;
    cr.name = cs.name;
    cr.busy_cycles = cs.busy_cycles;
    cr.wall_cycles = cs.wall_cycles;
    cr.events = cs.events;

    std::uint64_t wall = cs.wall_cycles ? cs.wall_cycles : 1;
    std::uint64_t overhead = 0;
    std::uint64_t waiting = 0;
    for (const auto& as : cs.adapters) {
      AdapterReport ar;
      ar.adapter = as.adapter;
      ar.component = as.component;
      ar.peer_component = as.peer_component;
      ar.counters = as.totals;
      ar.wait_fraction =
          static_cast<double>(ar.counters.sync_wait_cycles) / static_cast<double>(wall);
      overhead += ar.counters.overhead_cycles();
      waiting += ar.counters.sync_wait_cycles;
      cr.adapters.push_back(std::move(ar));
    }

    if (threaded) {
      cr.efficiency = 1.0 - std::min<double>(1.0, static_cast<double>(overhead) /
                                                      static_cast<double>(wall));
      cr.waiting_fraction =
          std::min(1.0, static_cast<double>(waiting) / static_cast<double>(wall));
    }
    if (rep.sim_seconds > 0.0) {
      cr.load_cycles_per_simsec = static_cast<double>(cs.busy_cycles) / rep.sim_seconds;
    }
    rep.components.push_back(std::move(cr));
  }

  if (!threaded) {
    // Coscheduled: derive waiting from load imbalance. With conservative
    // per-channel synchronization the simulation advances at the pace of the
    // most loaded component; everyone else would spend the load difference
    // waiting in a parallel run.
    double max_load = 0.0;
    std::unordered_map<std::string, double> load_by_name;
    for (const auto& c : rep.components) {
      max_load = std::max(max_load, c.load_cycles_per_simsec);
      load_by_name[c.name] = c.load_cycles_per_simsec;
    }
    for (auto& c : rep.components) {
      if (max_load > 0.0) {
        c.waiting_fraction = 1.0 - c.load_cycles_per_simsec / max_load;
      }
      // Efficiency: useful work as a fraction of the bottleneck pace.
      c.efficiency = max_load > 0.0 ? c.load_cycles_per_simsec / max_load : 1.0;
      for (auto& a : c.adapters) {
        auto it = load_by_name.find(a.peer_component);
        double peer_load = it == load_by_name.end() ? 0.0 : it->second;
        if (peer_load > c.load_cycles_per_simsec && peer_load > 0.0) {
          a.wait_fraction = 1.0 - c.load_cycles_per_simsec / peer_load;
        } else {
          a.wait_fraction = 0.0;
        }
      }
    }
  }
  return rep;
}

double project_wall_seconds(const ProfileReport& report, const PerfModelConfig& cfg) {
  double bottleneck = 0.0;
  double total = 0.0;
  for (const auto& c : report.components) {
    double load = static_cast<double>(c.busy_cycles);
    for (const auto& a : c.adapters) {
      load += cfg.cycles_per_sync * static_cast<double>(a.counters.tx_syncs);
      load += cfg.cycles_per_data_msg *
              static_cast<double>(a.counters.tx_msgs + a.counters.rx_msgs);
    }
    bottleneck = std::max(bottleneck, load);
    total += load;
  }
  unsigned cores = cfg.cores == 0 ? 1 : cfg.cores;
  double wall_cycles = std::max(bottleneck, total / static_cast<double>(cores));
  return wall_cycles / cycles_per_second();
}

double project_sim_speed(const ProfileReport& report, const PerfModelConfig& cfg) {
  double wall = project_wall_seconds(report, cfg);
  return wall > 0.0 ? report.sim_seconds / wall : 0.0;
}

std::string format_report(const ProfileReport& report) {
  std::ostringstream os;
  os << "simulated " << report.sim_seconds << " s in " << report.wall_seconds
     << " s wall => sim speed " << report.sim_speed << " sim-s/wall-s\n";
  Table t({"component", "events", "busy Mcyc", "load Mcyc/sim-s", "wait frac", "efficiency"});
  auto sorted = report.components;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.load_cycles_per_simsec > b.load_cycles_per_simsec;
  });
  for (const auto& c : sorted) {
    t.add_row({c.name, std::to_string(c.events), Table::num(c.busy_cycles / 1e6, 1),
               Table::num(c.load_cycles_per_simsec / 1e6, 1), Table::num(c.waiting_fraction, 3),
               Table::num(c.efficiency, 3)});
  }
  os << t.to_string();
  return os.str();
}

}  // namespace splitsim::profiler
