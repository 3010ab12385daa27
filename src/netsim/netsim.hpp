// The SplitSim packet-level network simulator ("netsim"), our ns-3 analog.
//
// A Network is one SplitSim component: a DES kernel simulating a set of
// nodes (hosts and switches) connected by links. A large topology can run
// as a single Network or be decomposed into several Network partitions
// connected by trunked SplitSim channels (netsim/topology.hpp), which is
// the paper's parallelization-by-decomposition applied to ns-3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netsim/device.hpp"
#include "proto/packet.hpp"
#include "runtime/component.hpp"

namespace splitsim::netsim {

class Node;

class Network : public runtime::Component {
 public:
  explicit Network(std::string name) : Component(std::move(name)) {}
  ~Network() override;

  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto n = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *n;
    nodes_.push_back(std::move(n));
    return ref;
  }

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

  /// Fresh unique packet id (per network; combined with the network name
  /// this is globally unique enough for tracing).
  std::uint64_t next_packet_id() { return ++pkt_id_; }

  void init() override;

 protected:
  /// Network-wide device/queue counters for the obs metrics registry
  /// (summed over nodes; published from the owning thread).
  void register_extra_obs_metrics(obs::Registry& reg) override;
  void publish_extra_obs_metrics() override;

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t pkt_id_ = 0;
  obs::Gauge* g_tx_pkts_ = nullptr;
  obs::Gauge* g_rx_pkts_ = nullptr;
  obs::Gauge* g_tx_bytes_ = nullptr;
  obs::Gauge* g_drops_ = nullptr;
  obs::Gauge* g_ecn_marks_ = nullptr;
  obs::Gauge* g_queued_pkts_ = nullptr;
  obs::Histogram* h_queue_pkts_ = nullptr;
};

/// Base class for everything attached to the network: owns devices.
class Node {
 public:
  Node(Network& net, std::string name) : net_(&net), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Network& network() { return *net_; }
  des::Kernel& kernel() { return net_->kernel(); }
  SimTime now() const { return net_->now(); }
  const std::string& name() const { return name_; }

  Device& add_device(Bandwidth bw, QueueConfig queue = {});
  Device& dev(std::size_t i) { return *devices_[i]; }
  std::size_t device_count() const { return devices_.size(); }

  /// Called once when the owning Network initializes.
  virtual void start() {}

  /// A packet arrived on device `in_dev`.
  virtual void handle_packet(proto::Packet&& p, std::size_t in_dev) = 0;

 protected:
  Network* net_;
  std::string name_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace splitsim::netsim
