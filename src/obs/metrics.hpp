// Named metrics: counters, gauges, and latency histograms.
//
// Instrumented layers resolve their metric handles once (a map lookup at
// construction) and then update through plain references, so the per-event
// cost is an integer add or a histogram bin increment. The registry renders
// to JSON (one object per metric), which Observability writes at finalize.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "simcore/stats.hpp"
#include "simcore/units.hpp"

namespace bgckpt::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A gauge holds a double. `add` turns it into an accumulator (busy
/// seconds), `setMax` into a high-water mark (queue depth).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  void setMax(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Latency histogram: fixed-width bins plus streaming summary statistics.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins) : hist_(lo, hi, bins) {}

  void add(double x) {
    hist_.add(x);
    stats_.add(x);
  }

  const sim::FixedHistogram& bins() const { return hist_; }
  const sim::Accumulator& stats() const { return stats_; }

 private:
  sim::FixedHistogram hist_;
  sim::Accumulator stats_;
};

/// Per-(src, dst) message statistics for the simulated MPI layer.
struct PairStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double latencySum = 0;
};

class MetricsRegistry {
 public:
  /// Handles are stable for the registry's lifetime (node-based map).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  void recordPair(int src, int dst, sim::Bytes bytes, double latency);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::unordered_map<std::uint64_t, PairStats>& pairs() const {
    return pairs_;
  }
  static int pairSrc(std::uint64_t key) { return static_cast<int>(key >> 32); }
  static int pairDst(std::uint64_t key) {
    return static_cast<int>(key & 0xffffffffu);
  }

  std::string toJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::unordered_map<std::uint64_t, PairStats> pairs_;
};

}  // namespace bgckpt::obs
