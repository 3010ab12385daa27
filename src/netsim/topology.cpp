#include "netsim/topology.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>

#include "netsim/partition_adapter.hpp"

namespace splitsim::netsim {

// ---------------------------------------------------------------- Topology

int Topology::add_host(std::string name, proto::Ipv4Addr ip) {
  nodes_.push_back({std::move(name), TopoNodeSpec::Kind::kHost, ip});
  return static_cast<int>(nodes_.size()) - 1;
}

int Topology::add_external_host(std::string name, proto::Ipv4Addr ip) {
  nodes_.push_back({std::move(name), TopoNodeSpec::Kind::kExternalHost, ip});
  return static_cast<int>(nodes_.size()) - 1;
}

int Topology::add_switch(std::string name) {
  nodes_.push_back({std::move(name), TopoNodeSpec::Kind::kSwitch, 0});
  return static_cast<int>(nodes_.size()) - 1;
}

int Topology::add_link(int a, int b, Bandwidth bw, SimTime latency, QueueConfig queue) {
  if (a < 0 || b < 0 || a >= static_cast<int>(nodes_.size()) ||
      b >= static_cast<int>(nodes_.size()) || a == b) {
    throw std::invalid_argument("Topology::add_link: bad endpoints");
  }
  links_.push_back({a, b, bw, latency, queue});
  return static_cast<int>(links_.size()) - 1;
}

std::vector<std::vector<std::pair<int, int>>> Topology::adjacency() const {
  std::vector<std::vector<std::pair<int, int>>> adj(nodes_.size());
  for (std::size_t li = 0; li < links_.size(); ++li) {
    adj[links_[li].a].emplace_back(static_cast<int>(li), links_[li].b);
    adj[links_[li].b].emplace_back(static_cast<int>(li), links_[li].a);
  }
  return adj;
}

// ------------------------------------------------------------- instantiate

Instance instantiate(runtime::Simulation& sim, const Topology& topo,
                     const std::vector<int>& partition, InstantiateOptions opts) {
  const auto& nodes = topo.nodes();
  const auto& links = topo.links();

  std::vector<int> part(nodes.size(), 0);
  if (!partition.empty()) {
    if (partition.size() != nodes.size()) {
      throw std::invalid_argument("instantiate: partition size mismatch");
    }
    part = partition;
  }
  int nparts = 1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_external()) nparts = std::max(nparts, part[i] + 1);
  }

  // Dense host ids for the routable nodes (non-switches with an IP), checked
  // before anything is added to `sim`.
  auto index = std::make_shared<HostIndex>();
  std::vector<int> host_node;  // host id -> topology node
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_switch() || nodes[n].ip == 0) continue;
    auto [it, fresh] = index->emplace(nodes[n].ip, static_cast<std::uint32_t>(host_node.size()));
    if (!fresh) {
      proto::Ipv4Addr a = nodes[n].ip;
      throw std::invalid_argument(
          "instantiate: hosts " + nodes[host_node[it->second]].name + " and " + nodes[n].name +
          " share IP " + std::to_string(a >> 24) + "." + std::to_string((a >> 16) & 0xff) + "." +
          std::to_string((a >> 8) & 0xff) + "." + std::to_string(a & 0xff));
    }
    host_node.push_back(static_cast<int>(n));
  }

  Instance inst;
  for (int p = 0; p < nparts; ++p) {
    std::string name = nparts == 1 ? opts.prefix : opts.prefix + ".p" + std::to_string(p);
    inst.nets.push_back(&sim.add_component<Network>(name));
  }

  // Instantiate nodes.
  std::vector<Node*> impl(nodes.size(), nullptr);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& spec = nodes[i];
    Network& net = *inst.nets[part[i]];
    if (spec.is_switch()) {
      impl[i] = inst.switches[spec.name] = &net.add_node<SwitchNode>(spec.name);
    } else if (!spec.is_external()) {  // external hosts are realized as channels below
      impl[i] = inst.hosts[spec.name] = &net.add_node<HostNode>(spec.name, spec.ip);
    }
  }

  // Pass 1: create devices in link order (device index on a node == order of
  // its links), wire internal and external links, collect cut links.
  // dev_at[link] = device index at ends (a, b); SIZE_MAX at an external host.
  std::vector<std::array<std::size_t, 2>> dev_at(links.size(), {SIZE_MAX, SIZE_MAX});
  std::vector<int> cuts;

  for (std::size_t li = 0; li < links.size(); ++li) {
    const auto& l = links[li];
    const auto& na = nodes[l.a];
    const auto& nb = nodes[l.b];

    if (na.is_external() && nb.is_external()) {
      throw std::invalid_argument("instantiate: link between two external hosts");
    }
    if (na.is_external() || nb.is_external()) {
      int ext = na.is_external() ? l.a : l.b;
      int in = na.is_external() ? l.b : l.a;
      if (!nodes[in].is_switch()) {
        throw std::invalid_argument("instantiate: external host must attach to a switch");
      }
      auto* sw = static_cast<SwitchNode*>(impl[in]);
      Device& dev = sw->add_device(l.bw, l.queue);
      dev_at[li][in == l.a ? 0 : 1] = dev.index();
      sync::ChannelConfig ccfg;
      ccfg.latency = l.latency;
      ccfg.ring_capacity = opts.ring_capacity;
      auto& ch = sim.add_channel("eth-" + nodes[ext].name, ccfg);
      Network& net = *inst.nets[part[in]];
      auto& ad = net.add_adapter("eth-" + nodes[ext].name, ch.end_a());
      attach_device_adapter(dev, ad);
      inst.external_ports[nodes[ext].name] = ExternalPort{
          nodes[ext].name, nodes[ext].ip, &ch, &ch.end_b(), &net, l.bw, l.latency};
      continue;
    }

    Device& da = impl[l.a]->add_device(l.bw, l.queue);
    Device& db = impl[l.b]->add_device(l.bw, l.queue);
    dev_at[li] = {da.index(), db.index()};
    if (part[l.a] == part[l.b]) {
      da.connect_to(db, l.latency);
    } else {
      cuts.push_back(static_cast<int>(li));
    }
  }

  auto cut_channel = [&](const std::string& name, SimTime latency) -> sync::Channel& {
    sync::ChannelConfig ccfg;
    ccfg.latency = latency > 0 ? latency : 1;  // zero-lookahead channels cannot synchronize
    ccfg.sync_interval = opts.cut_sync_interval;
    ccfg.ring_capacity = opts.ring_capacity;
    return sim.add_channel(name, ccfg);
  };

  // Pass 2a (untrunked mode): one synchronized channel per cut link.
  if (!opts.use_trunks) {
    int idx = 0;
    for (int c : cuts) {
      const auto& l = links[c];
      std::string cname = opts.prefix + ".cut." + std::to_string(idx++);
      auto& ch = cut_channel(cname, l.latency);
      Device& da = impl[l.a]->dev(dev_at[c][0]);
      Device& db = impl[l.b]->dev(dev_at[c][1]);
      auto& ad_a = inst.nets[part[l.a]]->add_adapter(cname, ch.end_a());
      auto& ad_b = inst.nets[part[l.b]]->add_adapter(cname, ch.end_b());
      attach_device_adapter(da, ad_a);
      attach_device_adapter(db, ad_b);
    }
    cuts.clear();
  }

  // Pass 2: one trunked channel per partition pair.
  std::map<std::pair<int, int>, std::vector<int>> groups;
  for (int c : cuts) {
    groups[std::minmax(part[links[c].a], part[links[c].b])].push_back(c);
  }
  for (auto& [key, group] : groups) {
    SimTime min_lat = kSimTimeMax;
    for (int c : group) min_lat = std::min(min_lat, links[c].latency);
    if (min_lat == 0) min_lat = 1;  // the lookahead cut_channel will use
    std::string cname = opts.prefix + ".trunk." + std::to_string(key.first) + "-" +
                        std::to_string(key.second);
    auto& ch = cut_channel(cname, min_lat);
    auto& trunk_a = inst.nets[key.first]->add_trunk(cname, ch.end_a());
    auto& trunk_b = inst.nets[key.second]->add_trunk(cname, ch.end_b());
    std::uint16_t sub = 0;
    for (int c : group) {
      const auto& l = links[c];
      SimTime extra = l.latency > min_lat ? l.latency - min_lat : 0;
      // Two sub-channels per cut link, one per direction.
      Device& da = impl[l.a]->dev(dev_at[c][0]);
      Device& db = impl[l.b]->dev(dev_at[c][1]);
      sync::TrunkAdapter& ta = part[l.a] == key.first ? trunk_a : trunk_b;
      sync::TrunkAdapter& tb = part[l.b] == key.first ? trunk_a : trunk_b;
      attach_device_trunk(da, ta, sub, extra);
      attach_device_trunk(db, tb, sub, extra);
      ++sub;
    }
  }

  // Routing. Hosts never forward, so hosts linked to the same switches (the
  // same attachment set) are equally far from every switch: one switch-only
  // BFS per distinct set, from distance 1 at the set, serves them all.
  auto adj = topo.adjacency();
  std::vector<int> sw_pos(nodes.size(), -1);  // node -> switch position
  std::size_t nsw = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_switch()) sw_pos[n] = static_cast<int>(nsw++);
  }
  std::map<std::vector<int>, std::size_t> set_ids;
  std::vector<std::size_t> set_of(host_node.size());
  std::vector<int> dist;  // [set * nsw + switch position], -1 = unreachable
  for (std::size_t h = 0; h < host_node.size(); ++h) {
    std::vector<int> queue;
    for (auto [li, peer] : adj[host_node[h]]) {
      if (sw_pos[peer] >= 0) queue.push_back(peer);
    }
    std::sort(queue.begin(), queue.end());
    queue.erase(std::unique(queue.begin(), queue.end()), queue.end());
    auto [it, fresh] = set_ids.emplace(queue, set_ids.size());
    set_of[h] = it->second;
    if (!fresh) continue;
    dist.resize(dist.size() + nsw, -1);
    int* d = dist.data() + it->second * nsw;
    for (int sw : queue) d[sw_pos[sw]] = 1;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      for (auto [li, peer] : adj[queue[qi]]) {
        if (sw_pos[peer] >= 0 && d[sw_pos[peer]] < 0) {
          d[sw_pos[peer]] = d[sw_pos[queue[qi]]] + 1;
          queue.push_back(peer);
        }
      }
    }
  }

  // The ECMP group at switch s towards host h, in adjacency (= link) order:
  // s's ports to h if s links to h, else s's switch neighbours one hop
  // closer, computed once per attachment set.
  auto port_at = [&](int li, int node) {
    return static_cast<std::uint32_t>(dev_at[li][links[li].a == node ? 0 : 1]);
  };
  std::vector<std::vector<std::uint32_t>> via(set_ids.size());
  for (int s = 0; s < static_cast<int>(nodes.size()); ++s) {
    const int p = sw_pos[s];
    if (p < 0) continue;
    for (std::size_t k = 0; k < via.size(); ++k) {
      const int* d = dist.data() + k * nsw;
      via[k].clear();
      for (auto [li, peer] : adj[s]) {
        if (d[p] > 1 && sw_pos[peer] >= 0 && d[sw_pos[peer]] == d[p] - 1) {
          via[k].push_back(port_at(li, s));
        }
      }
    }
    std::vector<std::uint32_t> first{0};
    std::vector<std::uint32_t> ports;
    for (std::size_t h = 0; h < host_node.size(); ++h) {
      if (dist[set_of[h] * nsw + p] == 1) {
        for (auto [li, peer] : adj[host_node[h]]) {
          if (peer == s) ports.push_back(port_at(li, s));
        }
      } else {
        ports.insert(ports.end(), via[set_of[h]].begin(), via[set_of[h]].end());
      }
      first.push_back(static_cast<std::uint32_t>(ports.size()));
    }
    static_cast<SwitchNode*>(impl[s])->set_routes(index, std::move(first), std::move(ports));
  }

  return inst;
}

// ------------------------------------------------------------------ builders

Dumbbell make_dumbbell(int pairs, Bandwidth edge_bw, Bandwidth bottleneck_bw, SimTime edge_lat,
                       SimTime bottleneck_lat, QueueConfig bottleneck_queue,
                       int external_pairs) {
  Dumbbell d;
  d.left_switch = d.topo.add_switch("swL");
  d.right_switch = d.topo.add_switch("swR");
  d.topo.add_link(d.left_switch, d.right_switch, bottleneck_bw, bottleneck_lat,
                  bottleneck_queue);
  for (int i = 0; i < pairs; ++i) {
    bool ext = i < external_pairs;
    std::string ln = "hL" + std::to_string(i);
    std::string rn = "hR" + std::to_string(i);
    proto::Ipv4Addr lip = proto::ip(10, 1, 0, static_cast<unsigned>(i + 1));
    proto::Ipv4Addr rip = proto::ip(10, 2, 0, static_cast<unsigned>(i + 1));
    int lh = ext ? d.topo.add_external_host(ln, lip) : d.topo.add_host(ln, lip);
    int rh = ext ? d.topo.add_external_host(rn, rip) : d.topo.add_host(rn, rip);
    d.topo.add_link(lh, d.left_switch, edge_bw, edge_lat);
    d.topo.add_link(rh, d.right_switch, edge_bw, edge_lat);
    d.left_hosts.push_back(lh);
    d.right_hosts.push_back(rh);
  }
  return d;
}

FatTree make_fattree(int k, Bandwidth host_bw, Bandwidth fabric_bw, SimTime link_lat,
                     QueueConfig queue) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("make_fattree: k must be even");
  FatTree ft;
  ft.k = k;
  int half = k / 2;
  for (int c = 0; c < half * half; ++c) {
    ft.cores.push_back(ft.topo.add_switch("core" + std::to_string(c)));
  }
  ft.aggs.resize(k);
  ft.edges.resize(k);
  for (int pod = 0; pod < k; ++pod) {
    for (int a = 0; a < half; ++a) {
      int agg = ft.topo.add_switch("agg" + std::to_string(pod) + "." + std::to_string(a));
      ft.aggs[pod].push_back(agg);
      // Agg a connects to cores [a*half, (a+1)*half).
      for (int c = 0; c < half; ++c) {
        ft.topo.add_link(agg, ft.cores[a * half + c], fabric_bw, link_lat, queue);
      }
    }
    for (int e = 0; e < half; ++e) {
      int edge = ft.topo.add_switch("edge" + std::to_string(pod) + "." + std::to_string(e));
      ft.edges[pod].push_back(edge);
      for (int a = 0; a < half; ++a) {
        ft.topo.add_link(edge, ft.aggs[pod][a], fabric_bw, link_lat, queue);
      }
      for (int h = 0; h < half; ++h) {
        proto::Ipv4Addr ip = proto::ip(10, static_cast<unsigned>(pod),
                                       static_cast<unsigned>(e), static_cast<unsigned>(h + 2));
        int host = ft.topo.add_host(
            "h" + std::to_string(pod) + "." + std::to_string(e) + "." + std::to_string(h), ip);
        ft.topo.add_link(host, edge, host_bw, link_lat, queue);
        ft.hosts.push_back(host);
      }
    }
  }
  return ft;
}

std::vector<int> fattree_partition(const FatTree& ft, int nparts) {
  std::vector<int> part(ft.topo.nodes().size(), 0);
  if (nparts <= 1) return part;
  int half = ft.k / 2;
  // Edge groups (edge switch + hosts) are the atomic unit: k*half of them.
  int total_groups = ft.k * half;
  auto group_part = [&](int pod, int e) {
    int gidx = pod * half + e;
    return gidx * nparts / total_groups;  // contiguous, pod-local grouping
  };
  auto adj = ft.topo.adjacency();
  for (int pod = 0; pod < ft.k; ++pod) {
    for (int e = 0; e < half; ++e) {
      int p = group_part(pod, e);
      part[ft.edges[pod][e]] = p;
    }
    for (int a = 0; a < half; ++a) {
      part[ft.aggs[pod][a]] = group_part(pod, 0);  // aggs join their pod's first group
    }
  }
  for (int h : ft.hosts) {
    // A host's partition follows its edge switch.
    for (auto [li, peer] : adj[h]) {
      (void)li;
      part[h] = part[peer];
      break;
    }
  }
  for (std::size_t c = 0; c < ft.cores.size(); ++c) {
    part[ft.cores[c]] = static_cast<int>(c) % nparts;
  }
  return part;
}

proto::Ipv4Addr datacenter_host_ip(int agg, int rack, int slot) {
  return proto::ip(10, static_cast<unsigned>(agg + 1), static_cast<unsigned>(rack),
                   static_cast<unsigned>(slot + 2));
}

Datacenter make_datacenter(int n_agg, int racks_per_agg, int hosts_per_rack, Bandwidth host_bw,
                           Bandwidth tor_up_bw, Bandwidth agg_core_bw, SimTime link_lat,
                           QueueConfig queue) {
  Datacenter dc;
  dc.host_bw = host_bw;
  dc.host_link_lat = link_lat;
  dc.edge_queue = queue;
  dc.core = dc.topo.add_switch("core");
  dc.aggs.resize(n_agg);
  dc.tors.resize(n_agg);
  dc.hosts.resize(n_agg);
  for (int a = 0; a < n_agg; ++a) {
    dc.aggs[a] = dc.topo.add_switch("agg" + std::to_string(a));
    dc.topo.add_link(dc.aggs[a], dc.core, agg_core_bw, link_lat, queue);
    dc.tors[a].resize(racks_per_agg);
    dc.hosts[a].resize(racks_per_agg);
    for (int r = 0; r < racks_per_agg; ++r) {
      dc.tors[a][r] = dc.topo.add_switch("tor" + std::to_string(a) + "." + std::to_string(r));
      dc.topo.add_link(dc.tors[a][r], dc.aggs[a], tor_up_bw, link_lat, queue);
      for (int h = 0; h < hosts_per_rack; ++h) {
        int host = dc.topo.add_host(
            "h" + std::to_string(a) + "." + std::to_string(r) + "." + std::to_string(h),
            datacenter_host_ip(a, r, h));
        dc.topo.add_link(host, dc.tors[a][r], host_bw, link_lat, queue);
        dc.hosts[a][r].push_back(host);
      }
    }
  }
  return dc;
}

int datacenter_add_external(Datacenter& dc, int agg, int rack, const std::string& name) {
  int slot = static_cast<int>(dc.hosts[agg][rack].size());
  int node = dc.topo.add_external_host(name, datacenter_host_ip(agg, rack, slot));
  dc.topo.add_link(node, dc.tors[agg][rack], dc.host_bw, dc.host_link_lat, dc.edge_queue);
  dc.hosts[agg][rack].push_back(node);
  return node;
}

}  // namespace splitsim::netsim
