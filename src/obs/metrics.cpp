#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "obs/json.hpp"

namespace bgckpt::obs {

using json::appendf;

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
  return it->second;
}

void MetricsRegistry::recordPair(int src, int dst, sim::Bytes bytes,
                                 double latency) {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(src))
                             << 32) |
                            static_cast<std::uint32_t>(dst);
  PairStats& p = pairs_[key];
  ++p.count;
  p.bytes += bytes;
  p.latencySum += latency;
}

std::string MetricsRegistry::toJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    appendf(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", name.c_str(),
            c.value());
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    appendf(out, "%s\n    \"%s\": %.9g", first ? "" : ",", name.c_str(),
            g.value());
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const auto& s = h.stats();
    appendf(out,
            "%s\n    \"%s\": {\"count\": %" PRIu64
            ", \"mean\": %.9g, \"min\": %.9g, \"max\": %.9g, "
            "\"stddev\": %.9g, \"bins\": [",
            first ? "" : ",", name.c_str(), s.count(), s.mean(), s.min(),
            s.max(), s.stddev());
    for (std::size_t i = 0; i < h.bins().bins(); ++i)
      appendf(out, "%s%" PRIu64, i ? "," : "", h.bins().binCount(i));
    out += "]}";
    first = false;
  }
  // Pairs: the full matrix can be O(ranks); keep JSON readable with the
  // top pairs by bytes and an exact total count. Equal-byte pairs are
  // ordered by (src, dst) key, so the output never depends on hash order.
  std::vector<std::pair<std::uint64_t, PairStats>> byBytes(pairs_.begin(),
                                                           pairs_.end());
  std::sort(byBytes.begin(), byBytes.end(), [](const auto& a, const auto& b) {
    if (a.second.bytes != b.second.bytes)
      return a.second.bytes > b.second.bytes;
    return a.first < b.first;
  });
  constexpr std::size_t kTopPairs = 64;
  appendf(out, "\n  },\n  \"mpiPairsTotal\": %zu,\n  \"mpiTopPairs\": [",
          pairs_.size());
  for (std::size_t i = 0; i < byBytes.size() && i < kTopPairs; ++i) {
    const auto& [key, p] = byBytes[i];
    appendf(out,
            "%s\n    {\"src\": %d, \"dst\": %d, \"count\": %" PRIu64
            ", \"bytes\": %" PRIu64 ", \"meanLatency\": %.9g}",
            i ? "," : "", pairSrc(key), pairDst(key), p.count, p.bytes,
            p.count ? p.latencySum / static_cast<double>(p.count) : 0.0);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace bgckpt::obs
