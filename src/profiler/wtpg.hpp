// Wait-Time Profile Graph (paper §3.3.2): one node per simulator instance,
// a pair of opposite directed edges per SplitSim channel, each edge labeled
// with the fraction of cycles the source spent waiting for synchronization
// messages from the destination. Nodes are colored on a green→red spectrum:
// red nodes rarely wait — they are the bottleneck.
#pragma once

#include <string>

#include "profiler/profiler.hpp"
#include "util/dot.hpp"

namespace splitsim::profiler {

/// Build the WTPG as a GraphViz DOT graph.
DotGraph build_wtpg(const ProfileReport& report, const std::string& graph_name = "wtpg");

/// Compact textual rendering (nodes sorted by waiting fraction, edges with
/// non-negligible waiting), for terminals without GraphViz.
std::string format_wtpg(const ProfileReport& report, double min_edge_fraction = 0.01);

}  // namespace splitsim::profiler
