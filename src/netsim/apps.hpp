// Standard protocol-level applications: TCP bulk sender/sink (background
// traffic, congestion-control studies), UDP on/off traffic, UDP echo.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/host.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace splitsim::netsim {

/// Opens a TCP connection at `start_at` and sends `bytes` (default:
/// unlimited bulk).
class BulkSenderApp : public App {
 public:
  struct Config {
    proto::Ipv4Addr dst = 0;
    std::uint16_t dst_port = 5001;
    proto::TcpConfig tcp;
    SimTime start_at = 0;
    std::uint64_t bytes = proto::TcpConnection::kUnlimited;
  };

  explicit BulkSenderApp(Config cfg) : cfg_(cfg) {}

  void start(HostNode& host) override;

  /// Valid after the connection opened.
  proto::TcpConnection* connection() { return conn_; }
  bool completed() const { return completed_; }

 private:
  Config cfg_;
  proto::TcpConnection* conn_ = nullptr;
  bool completed_ = false;
};

/// Listens on a TCP port; counts delivered bytes, optionally only within a
/// measurement window (for steady-state goodput).
class TcpSinkApp : public App {
 public:
  struct Config {
    std::uint16_t port = 5001;
    proto::TcpConfig tcp;
    SimTime window_start = 0;
    SimTime window_end = kSimTimeMax;
  };

  explicit TcpSinkApp(Config cfg) : cfg_(cfg) {}

  void start(HostNode& host) override;

  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Goodput within the measurement window, in bits per second.
  double window_goodput_bps() const;

 private:
  Config cfg_;
  HostNode* host_ = nullptr;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t window_bytes_ = 0;
};

/// Constant-rate (or on/off) UDP datagram source, for background load.
class OnOffUdpApp : public App {
 public:
  struct Config {
    proto::Ipv4Addr dst = 0;
    std::uint16_t dst_port = 9000;
    std::uint16_t src_port = 9000;
    std::uint32_t payload_bytes = 1400;
    double rate_bps = 1e9;
    SimTime start_at = 0;
    SimTime on_period = kSimTimeMax;  ///< kSimTimeMax = always on
    SimTime off_period = 0;
  };

  explicit OnOffUdpApp(Config cfg) : cfg_(cfg) {}

  void start(HostNode& host) override;

  std::uint64_t packets_sent() const { return sent_; }

 private:
  void send_next(HostNode& host);

  Config cfg_;
  std::uint64_t sent_ = 0;
  SimTime interval_ = 0;
};

/// Counts received UDP datagrams on a port.
class UdpSinkApp : public App {
 public:
  explicit UdpSinkApp(std::uint16_t port) : port_(port) {}

  void start(HostNode& host) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint16_t port_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Reflects UDP datagrams back to the sender (ping-style testing).
class UdpEchoApp : public App {
 public:
  explicit UdpEchoApp(std::uint16_t port) : port_(port) {}
  void start(HostNode& host) override;

 private:
  std::uint16_t port_;
};

}  // namespace splitsim::netsim
