#include "profiler/wtpg.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/table.hpp"

namespace splitsim::profiler {

DotGraph build_wtpg(const ProfileReport& report, const std::string& graph_name) {
  DotGraph g(graph_name);
  for (const auto& c : report.components) {
    std::ostringstream label;
    label << c.name << "\\nwait " << std::fixed << std::setprecision(0)
          << c.waiting_fraction * 100.0 << "%";
    g.add_node(c.name, {{"label", label.str()},
                        {"fillcolor", DotGraph::heat_color(c.waiting_fraction)}});
  }
  for (const auto& c : report.components) {
    for (const auto& a : c.adapters) {
      if (a.peer_component.empty()) continue;
      std::ostringstream label;
      label << std::fixed << std::setprecision(2) << a.wait_fraction;
      g.add_edge(c.name, a.peer_component, {{"label", label.str()}});
    }
  }
  return g;
}

std::string format_wtpg(const ProfileReport& report, double min_edge_fraction) {
  std::ostringstream os;
  auto sorted = report.components;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.waiting_fraction < b.waiting_fraction;
  });
  Table nodes({"component", "wait frac", "verdict"});
  for (const auto& c : sorted) {
    std::string verdict = c.waiting_fraction < 0.05  ? "BOTTLENECK (red)"
                          : c.waiting_fraction < 0.4 ? "busy (orange)"
                                                     : "mostly waiting (green)";
    nodes.add_row({c.name, Table::num(c.waiting_fraction, 3), verdict});
  }
  os << nodes.to_string();
  Table edges({"waits", "on", "fraction"});
  bool any = false;
  for (const auto& c : report.components) {
    for (const auto& a : c.adapters) {
      if (a.peer_component.empty() || a.wait_fraction < min_edge_fraction) continue;
      edges.add_row({c.name, a.peer_component, Table::num(a.wait_fraction, 3)});
      any = true;
    }
  }
  if (any) os << "\n" << edges.to_string();
  return os.str();
}

}  // namespace splitsim::profiler
