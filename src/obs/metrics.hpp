// Always-on cheap metrics for SplitSim runs (the "broad" pillar of the obs
// layer): a registry of named counters, gauges, and log-bucket histograms.
//
// Update paths are single relaxed atomic operations, so simulator threads
// can bump metrics while the progress reporter thread snapshots them. Two
// registration styles:
//  * owned instruments (counter/gauge/histogram): the producer updates the
//    returned object from its own thread (push model; used for values whose
//    underlying state is not safe to read cross-thread, e.g. DES kernel
//    queue sizes and netsim device counters);
//  * polls (register_poll): a callback evaluated at snapshot time on the
//    reporter thread (pull model; ONLY for reads that are already
//    thread-safe, e.g. channel ring occupancy via the SPSC atomics).
//
// Snapshots are cheap (one mutex for the name table, relaxed loads for the
// values) and are serialized periodically into a metrics JSON next to the
// run record (summary.json).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace splitsim::obs {

/// Monotone counter.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins gauge (set from the owning thread, read from anywhere).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucket histogram of non-negative integer samples. Bucket `i` covers
/// values with bit width `i`: bucket 0 holds exactly 0, bucket i (i >= 1)
/// holds [2^(i-1), 2^i - 1]. 65 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t v) { return std::bit_width(v); }
  static std::uint64_t bucket_lo(int i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  static std::uint64_t bucket_hi(int i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void observe(std::uint64_t v) {
    b_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t bucket(int i) const {
    return b_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : b_) n += b.load(std::memory_order_relaxed);
    return n;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> b_{};
};

/// One observed value in a snapshot.
struct SnapshotHist {
  std::string name;
  std::uint64_t count = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

struct MetricsSnapshot {
  double wall_seconds = 0.0;  ///< since the reporter/run started
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;  ///< owned + polled
  std::vector<SnapshotHist> histograms;

  /// Value of a counter/gauge by name (0 when absent; tests convenience).
  double value(const std::string& name) const;
};

class Registry {
 public:
  /// Find-or-create; returned references stay valid for the registry's
  /// lifetime (deque storage, no reallocation of elements).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Register (or replace) a pull-model gauge evaluated at snapshot time on
  /// the snapshotting thread. `fn` must only perform thread-safe reads.
  void register_poll(const std::string& name, std::function<double()> fn);

  MetricsSnapshot snapshot(double wall_seconds = 0.0) const;

  /// Drop every instrument and poll (tests / fresh runs).
  void clear();

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> hists_;
  std::vector<std::pair<std::string, std::function<double()>>> polls_;
};

/// Serialize a snapshot series as JSON: {"snapshots":[...]}. Creates parent
/// directories for `path`.
void write_metrics_json(const std::string& path, const std::vector<MetricsSnapshot>& series);
std::string metrics_json(const std::vector<MetricsSnapshot>& series);

}  // namespace splitsim::obs
