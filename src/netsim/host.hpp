// Protocol-level host: a network node with a minimal UDP/TCP stack and an
// application framework, the mixed-fidelity stand-in for a detailed host
// simulator. Protocol-level hosts have zero host-internal cost — exactly
// the modeling gap the paper's end-to-end case studies expose.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "netsim/netsim.hpp"
#include "proto/tcp.hpp"

namespace splitsim::netsim {

class HostNode;

/// Application attached to a host; started when the Network initializes.
class App {
 public:
  virtual ~App() = default;
  virtual void start(HostNode& host) = 0;
};

class HostNode : public Node, public proto::TcpEnv {
 public:
  HostNode(Network& net, std::string name, proto::Ipv4Addr ip);
  ~HostNode() override;

  proto::Ipv4Addr ip() const { return ip_; }

  // ---- raw IP --------------------------------------------------------
  /// Send via the host's (single) uplink device; fills in src fields.
  void ip_send(proto::Packet&& p);

  /// Protocol-level hosts have no CPU model: application "work" completes
  /// instantly. Mirrors hostsim::HostComponent::exec so application logic
  /// can be written once and run at either fidelity.
  void exec(std::uint64_t /*instrs*/, std::function<void()> done) {
    if (done) done();
  }

  // ---- UDP -------------------------------------------------------------
  using UdpHandler = std::function<void(const proto::Packet&, SimTime now)>;
  void udp_bind(std::uint16_t port, UdpHandler handler);
  void udp_send(proto::Ipv4Addr dst, std::uint16_t dst_port, std::uint16_t src_port,
                const proto::AppData& data, std::uint32_t extra_payload = 0);

  // ---- TCP -------------------------------------------------------------
  /// Active open with an ephemeral local port.
  proto::TcpConnection& tcp_connect(proto::Ipv4Addr dst, std::uint16_t dst_port,
                                    proto::TcpConfig cfg = {});
  /// Passive listener; `on_accept` runs for each new connection.
  using AcceptHandler = std::function<void(proto::TcpConnection&)>;
  void tcp_listen(std::uint16_t port, proto::TcpConfig cfg, AcceptHandler on_accept);

  // ---- apps ------------------------------------------------------------
  template <typename T, typename... Args>
  T& add_app(Args&&... args) {
    auto a = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *a;
    apps_.push_back(std::move(a));
    return ref;
  }

  void start() override;
  void handle_packet(proto::Packet&& p, std::size_t in_dev) override;

  // ---- TcpEnv ------------------------------------------------------------
  SimTime tcp_now() const override { return net_->now(); }
  void tcp_tx(proto::Packet&& p) override { ip_send(std::move(p)); }
  proto::TcpEnv::TimerId tcp_set_timer(SimTime at, std::function<void()> fn) override;
  void tcp_cancel_timer(proto::TcpEnv::TimerId id) override;

 private:
  using TcpKey = std::tuple<proto::Ipv4Addr, std::uint16_t, std::uint16_t>;  // rip, rport, lport

  struct Listener {
    proto::TcpConfig cfg;
    AcceptHandler on_accept;
  };

  proto::Ipv4Addr ip_;
  std::uint16_t next_ephemeral_ = 40000;
  std::map<std::uint16_t, UdpHandler> udp_ports_;
  std::map<std::uint16_t, Listener> tcp_listeners_;
  std::map<TcpKey, std::unique_ptr<proto::TcpConnection>> tcp_conns_;
  std::vector<std::unique_ptr<App>> apps_;
};

}  // namespace splitsim::netsim
