#include <stdexcept>

#include "netsim/host.hpp"
#include "netsim/netsim.hpp"

namespace splitsim::netsim {

// ---------------------------------------------------------------- Network --

Network::~Network() = default;

void Network::init() {
  for (auto& n : nodes_) n->start();
}

void Network::register_extra_obs_metrics(obs::Registry& reg) {
  const std::string p = "net." + name() + ".";
  g_tx_pkts_ = &reg.gauge(p + "tx_packets");
  g_rx_pkts_ = &reg.gauge(p + "rx_packets");
  g_tx_bytes_ = &reg.gauge(p + "tx_bytes");
  g_drops_ = &reg.gauge(p + "queue_drops");
  g_ecn_marks_ = &reg.gauge(p + "ecn_marks");
  g_queued_pkts_ = &reg.gauge(p + "queued_packets");
  h_queue_pkts_ = &reg.histogram(p + "queue_pkts_hist");
}

void Network::publish_extra_obs_metrics() {
  if (g_tx_pkts_ == nullptr) return;
  std::uint64_t tx = 0, rx = 0, txb = 0, drops = 0, marks = 0, queued = 0;
  std::uint32_t deepest = 0;
  for (auto& n : nodes_) {
    for (std::size_t i = 0; i < n->device_count(); ++i) {
      Device& d = n->dev(i);
      tx += d.tx_packets();
      rx += d.rx_packets();
      txb += d.tx_bytes();
      drops += d.queue().drops();
      marks += d.queue().ecn_marks();
      queued += d.queue().packets();
      if (d.queue().packets() > deepest) deepest = d.queue().packets();
    }
  }
  g_tx_pkts_->set(static_cast<double>(tx));
  g_rx_pkts_->set(static_cast<double>(rx));
  g_tx_bytes_->set(static_cast<double>(txb));
  g_drops_->set(static_cast<double>(drops));
  g_ecn_marks_->set(static_cast<double>(marks));
  g_queued_pkts_->set(static_cast<double>(queued));
  h_queue_pkts_->observe(deepest);
}

// ------------------------------------------------------------------- Node --

Device& Node::add_device(Bandwidth bw, QueueConfig queue) {
  devices_.push_back(std::make_unique<Device>(*this, devices_.size(), bw, queue));
  return *devices_.back();
}

// --------------------------------------------------------------- HostNode --

HostNode::HostNode(Network& net, std::string name, proto::Ipv4Addr ip)
    : Node(net, std::move(name)), ip_(ip) {}

HostNode::~HostNode() = default;

void HostNode::start() {
  for (auto& a : apps_) a->start(*this);
}

void HostNode::ip_send(proto::Packet&& p) {
  if (devices_.empty()) throw std::logic_error("HostNode::ip_send: no device on " + name_);
  p.src_ip = ip_;
  p.id = net_->next_packet_id();
  devices_[0]->enqueue(std::move(p));
}

void HostNode::udp_bind(std::uint16_t port, UdpHandler handler) {
  auto [it, inserted] = udp_ports_.emplace(port, std::move(handler));
  (void)it;
  if (!inserted) throw std::logic_error("HostNode::udp_bind: port in use");
}

void HostNode::udp_send(proto::Ipv4Addr dst, std::uint16_t dst_port, std::uint16_t src_port,
                        const proto::AppData& data, std::uint32_t extra_payload) {
  proto::Packet p;
  p.dst_ip = dst;
  p.l4 = proto::L4Proto::kUdp;
  p.src_port = src_port;
  p.dst_port = dst_port;
  p.app = data;
  p.payload_len = extra_payload;
  ip_send(std::move(p));
}

proto::TcpConnection& HostNode::tcp_connect(proto::Ipv4Addr dst, std::uint16_t dst_port,
                                            proto::TcpConfig cfg) {
  std::uint16_t lport = next_ephemeral_++;
  auto conn = std::make_unique<proto::TcpConnection>(*this, cfg, ip_, lport, dst, dst_port,
                                                     /*passive=*/false);
  auto& ref = *conn;
  tcp_conns_.emplace(TcpKey{dst, dst_port, lport}, std::move(conn));
  ref.open();
  return ref;
}

void HostNode::tcp_listen(std::uint16_t port, proto::TcpConfig cfg, AcceptHandler on_accept) {
  auto [it, inserted] = tcp_listeners_.emplace(port, Listener{cfg, std::move(on_accept)});
  (void)it;
  if (!inserted) throw std::logic_error("HostNode::tcp_listen: port in use");
}

void HostNode::handle_packet(proto::Packet&& p, std::size_t in_dev) {
  (void)in_dev;
  if (p.dst_ip != ip_ && p.dst_ip != 0) return;  // not for us
  if (p.l4 == proto::L4Proto::kUdp) {
    auto it = udp_ports_.find(p.dst_port);
    if (it != udp_ports_.end()) it->second(p, now());
    return;
  }
  if (p.l4 == proto::L4Proto::kTcp) {
    TcpKey key{p.src_ip, p.src_port, p.dst_port};
    auto it = tcp_conns_.find(key);
    if (it != tcp_conns_.end()) {
      it->second->on_segment(p);
      return;
    }
    // New connection towards a listener?
    if (p.has_flag(proto::tcpflag::kSyn) && !p.has_flag(proto::tcpflag::kAck)) {
      auto lit = tcp_listeners_.find(p.dst_port);
      if (lit == tcp_listeners_.end()) return;
      auto conn = std::make_unique<proto::TcpConnection>(*this, lit->second.cfg, ip_, p.dst_port,
                                                         p.src_ip, p.src_port, /*passive=*/true);
      auto& ref = *conn;
      tcp_conns_.emplace(key, std::move(conn));
      if (lit->second.on_accept) lit->second.on_accept(ref);
      ref.on_segment(p);
    }
    return;
  }
}

// TCP timer churn rides directly on kernel handles: set = one slab
// schedule, cancel = one generation-checked unlink. No id->event map in
// between, and a stale cancel (timer already fired) is a safe no-op.
proto::TcpEnv::TimerId HostNode::tcp_set_timer(SimTime at, std::function<void()> fn) {
  return kernel().schedule_at(at, std::move(fn));
}

void HostNode::tcp_cancel_timer(proto::TcpEnv::TimerId id) { kernel().cancel(id); }

}  // namespace splitsim::netsim
