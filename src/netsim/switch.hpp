// Output-queued switch with static routing tables (computed globally by the
// topology builder), deterministic ECMP by flow hash, and a pluggable
// in-switch processing hook used by the NetCache / Pegasus / PTP
// transparent-clock case studies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "netsim/netsim.hpp"

namespace splitsim::netsim {

class SwitchNode;

/// In-switch packet processing (programmable-switch stand-in). Runs before
/// routing: may rewrite the packet, emit new packets via the switch, or
/// consume it entirely.
class SwitchApp {
 public:
  virtual ~SwitchApp() = default;
  /// Return true if the packet was consumed (the app handled forwarding or
  /// dropped it); false to continue with normal routing of (possibly
  /// rewritten) `p`.
  virtual bool process(SwitchNode& sw, proto::Packet& p, std::size_t in_port) = 0;
};

/// Routable IP -> dense host id; one per topology instance, shared
/// read-only by all of its switches.
using HostIndex = std::unordered_map<proto::Ipv4Addr, std::uint32_t>;

class SwitchNode : public Node {
 public:
  using Node::Node;

  /// Install the routing table (CSR): the ECMP group towards host id `h`
  /// is `ports[first[h] .. first[h + 1])`.
  void set_routes(std::shared_ptr<const HostIndex> index, std::vector<std::uint32_t> first,
                  std::vector<std::uint32_t> ports) {
    index_ = std::move(index);
    first_ = std::move(first);
    ports_ = std::move(ports);
  }

  /// The ECMP group towards `dst`; empty when unroutable.
  std::span<const std::uint32_t> routes(proto::Ipv4Addr dst) const;

  void set_app(std::unique_ptr<SwitchApp> app) { app_ = std::move(app); }
  SwitchApp* app() { return app_.get(); }

  void handle_packet(proto::Packet&& p, std::size_t in_dev) override;

  /// Queue a packet on output port `port`.
  void send_out(proto::Packet&& p, std::size_t port) { dev(port).enqueue(std::move(p)); }

  /// ECMP next hop for this packet, or SIZE_MAX when unroutable.
  std::size_t lookup(const proto::Packet& p) const;

  std::uint64_t unroutable_drops() const { return unroutable_; }

 private:
  std::shared_ptr<const HostIndex> index_;
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> ports_;
  std::unique_ptr<SwitchApp> app_;
  std::uint64_t unroutable_ = 0;
};

}  // namespace splitsim::netsim
