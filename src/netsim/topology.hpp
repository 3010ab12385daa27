// Simulator-independent topology description plus instantiation into one or
// more netsim partitions connected by trunked SplitSim channels.
//
// The same Topology can be realized as a single sequential Network (the
// "s" strategy) or decomposed with any partition assignment — this is the
// paper's "parallelizing through decomposition" applied to the network
// simulator, with routing computed globally so partitioning never changes
// simulated behavior.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsim/host.hpp"
#include "netsim/switch.hpp"
#include "runtime/runner.hpp"

namespace splitsim::netsim {

struct TopoNodeSpec {
  enum class Kind { kHost, kSwitch, kExternalHost };
  std::string name;
  Kind kind = Kind::kHost;
  proto::Ipv4Addr ip = 0;

  bool is_switch() const { return kind == Kind::kSwitch; }
  bool is_external() const { return kind == Kind::kExternalHost; }
};

struct TopoLinkSpec {
  int a = 0;
  int b = 0;
  Bandwidth bw;
  SimTime latency = 0;
  QueueConfig queue;
};

class Topology {
 public:
  int add_host(std::string name, proto::Ipv4Addr ip);
  /// A host simulated *outside* this network (detailed host + NIC
  /// simulators attached over an Ethernet channel). It participates in
  /// routing but is not instantiated as a protocol-level node.
  int add_external_host(std::string name, proto::Ipv4Addr ip);
  int add_switch(std::string name);
  int add_link(int a, int b, Bandwidth bw, SimTime latency, QueueConfig queue = {});

  const std::vector<TopoNodeSpec>& nodes() const { return nodes_; }
  const std::vector<TopoLinkSpec>& links() const { return links_; }

  /// adjacency()[n] = list of (link index, peer node index).
  std::vector<std::vector<std::pair<int, int>>> adjacency() const;

 private:
  std::vector<TopoNodeSpec> nodes_;
  std::vector<TopoLinkSpec> links_;
};

/// Attachment point for an external (detailed) host: the network side is
/// already wired; the NIC/host simulator attaches an adapter to `far_end`.
struct ExternalPort {
  std::string host_name;
  proto::Ipv4Addr ip = 0;
  sync::Channel* channel = nullptr;
  sync::ChannelEnd* far_end = nullptr;
  Network* net = nullptr;  ///< partition the access switch lives in
  Bandwidth bw;
  SimTime latency = 0;
};

struct Instance {
  std::vector<Network*> nets;
  std::unordered_map<std::string, HostNode*> hosts;
  std::unordered_map<std::string, SwitchNode*> switches;
  std::unordered_map<std::string, ExternalPort> external_ports;
};

struct InstantiateOptions {
  std::string prefix = "net";
  std::size_t ring_capacity = 512;
  /// Multiplex all cut links of a partition pair over one synchronized
  /// trunk channel (paper §3.2.1). false = one synchronized channel per
  /// cut link (OMNeT++-style per-link synchronization; also the trunk
  /// ablation in bench_ablation_trunk).
  bool use_trunks = true;
  /// Sync interval for cut-link channels; 0 = the channel latency (the
  /// largest legal value). Smaller values tighten coupling without
  /// changing simulated results (bench_ablation_sync_interval).
  SimTime cut_sync_interval = 0;
};

/// Build netsim components inside `sim`. `partition[node]` assigns each
/// topology node to a partition (empty = everything in one Network).
/// Cut links become trunked channels (one per partition pair); links to
/// external hosts become dedicated Ethernet channels. Throws
/// std::invalid_argument if two hosts share an IP.
Instance instantiate(runtime::Simulation& sim, const Topology& topo,
                     const std::vector<int>& partition = {}, InstantiateOptions opts = {});

// ---------------------------------------------------------------- builders

struct Dumbbell {
  Topology topo;
  int left_switch = 0;
  int right_switch = 0;
  std::vector<int> left_hosts;   // senders
  std::vector<int> right_hosts;  // receivers
};

/// Classic congestion-control dumbbell: `pairs` senders on the left bulk-
/// transfer to receivers on the right across one bottleneck link. The first
/// `external_pairs` pairs are external (detailed) hosts.
Dumbbell make_dumbbell(int pairs, Bandwidth edge_bw, Bandwidth bottleneck_bw, SimTime edge_lat,
                       SimTime bottleneck_lat, QueueConfig bottleneck_queue,
                       int external_pairs = 0);

struct FatTree {
  Topology topo;
  int k = 0;
  std::vector<int> cores;
  std::vector<std::vector<int>> aggs;   // [pod]
  std::vector<std::vector<int>> edges;  // [pod]
  std::vector<int> hosts;               // all hosts, pod-major order
};

/// k-ary fat-tree with (k/2)^2*k hosts (k=8 -> 128 servers, the DONS
/// "FatTree8" configuration used in the paper's Fig. 8).
FatTree make_fattree(int k, Bandwidth host_bw, Bandwidth fabric_bw, SimTime link_lat,
                     QueueConfig queue = {});

/// Even partition of a fat-tree into `nparts` parts: edge groups (edge
/// switch + its hosts) stay intact, aggs follow their pod, cores spread
/// round-robin.
std::vector<int> fattree_partition(const FatTree& ft, int nparts);

struct Datacenter {
  Topology topo;
  int core = 0;
  std::vector<int> aggs;
  std::vector<std::vector<int>> tors;                // [agg][rack]
  std::vector<std::vector<std::vector<int>>> hosts;  // [agg][rack][slot]
  Bandwidth host_bw;
  SimTime host_link_lat = 0;
  QueueConfig edge_queue;
};

/// The paper's 1200-host background topology (§4.3): one core switch,
/// 100 Gbps links to `n_agg` aggregation switches, each serving
/// `racks_per_agg` racks of `hosts_per_rack` machines behind a ToR.
Datacenter make_datacenter(int n_agg = 4, int racks_per_agg = 6, int hosts_per_rack = 50,
                           Bandwidth host_bw = Bandwidth::gbps(10),
                           Bandwidth tor_up_bw = Bandwidth::gbps(40),
                           Bandwidth agg_core_bw = Bandwidth::gbps(100),
                           SimTime link_lat = from_us(1.0), QueueConfig queue = {});

/// Attach an external (detailed) host to a specific rack's ToR.
int datacenter_add_external(Datacenter& dc, int agg, int rack, const std::string& name);

/// IP address of a regular datacenter host.
proto::Ipv4Addr datacenter_host_ip(int agg, int rack, int slot);

}  // namespace splitsim::netsim
