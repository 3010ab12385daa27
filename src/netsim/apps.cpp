#include "netsim/apps.hpp"

namespace splitsim::netsim {

void BulkSenderApp::start(HostNode& host) {
  host.kernel().schedule_at(cfg_.start_at, [this, &host] {
    conn_ = &host.tcp_connect(cfg_.dst, cfg_.dst_port, cfg_.tcp);
    conn_->on_send_complete = [this] { completed_ = true; };
    conn_->app_send(cfg_.bytes);
  });
}

void TcpSinkApp::start(HostNode& host) {
  host_ = &host;
  host.tcp_listen(cfg_.port, cfg_.tcp, [this](proto::TcpConnection& conn) {
    conn.on_deliver = [this](std::uint64_t bytes) {
      total_bytes_ += bytes;
      SimTime t = host_->now();
      if (t >= cfg_.window_start && t < cfg_.window_end) window_bytes_ += bytes;
    };
  });
}

double TcpSinkApp::window_goodput_bps() const {
  SimTime end = cfg_.window_end == kSimTimeMax ? 0 : cfg_.window_end;
  if (end <= cfg_.window_start) return 0.0;
  return static_cast<double>(window_bytes_) * 8.0 / to_sec(end - cfg_.window_start);
}

void OnOffUdpApp::start(HostNode& host) {
  double pkts_per_sec = cfg_.rate_bps / (8.0 * cfg_.payload_bytes);
  interval_ = pkts_per_sec > 0 ? static_cast<SimTime>(timeunit::sec / pkts_per_sec) : 0;
  if (interval_ == 0) return;
  host.kernel().schedule_at(cfg_.start_at, [this, &host] { send_next(host); });
}

void OnOffUdpApp::send_next(HostNode& host) {
  proto::AppData empty;
  host.udp_send(cfg_.dst, cfg_.dst_port, cfg_.src_port, empty, cfg_.payload_bytes);
  ++sent_;
  SimTime next = interval_;
  if (cfg_.on_period != kSimTimeMax && cfg_.off_period > 0) {
    // Position within the on/off cycle decides whether to pause.
    SimTime cycle = cfg_.on_period + cfg_.off_period;
    SimTime phase = (host.now() - cfg_.start_at) % cycle;
    if (phase + interval_ >= cfg_.on_period && phase < cfg_.on_period) {
      next = cycle - phase;  // skip the off period
    }
  }
  host.kernel().schedule_in(next, [this, &host] { send_next(host); });
}

void UdpSinkApp::start(HostNode& host) {
  host.udp_bind(port_, [this](const proto::Packet& p, SimTime) {
    ++packets_;
    bytes_ += p.payload_len;
  });
}

void UdpEchoApp::start(HostNode& host) {
  host.udp_bind(port_, [this, &host](const proto::Packet& p, SimTime) {
    host.udp_send(p.src_ip, p.src_port, port_, p.app, p.payload_len);
  });
}

}  // namespace splitsim::netsim
