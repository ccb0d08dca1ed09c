#include "obs/flightrec.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "obs/attr.hpp"

namespace bgckpt::obs {

namespace {

// Registration happens from bench runSims workers concurrently; the lock
// covers every registry access (each recorder itself stays single-stack).
std::mutex& registryMu() {
  static std::mutex mu;
  return mu;
}

std::vector<std::weak_ptr<FlightRecorder>>& registry() {
  static std::vector<std::weak_ptr<FlightRecorder>> recs;
  return recs;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t perLayer)
    : perLayer_(perLayer == 0 ? 1 : perLayer) {
  for (auto& ring : rings_) ring.reserve(perLayer_);
}

std::shared_ptr<FlightRecorder> FlightRecorder::create(std::size_t perLayer) {
  auto rec = std::make_shared<FlightRecorder>(perLayer);
  registerFlightRecorder(rec);
  return rec;
}

void FlightRecorder::event(const TraceEvent& ev) {
  const auto layer = static_cast<std::size_t>(ev.layer);
  if (layer >= rings_.size()) return;
  std::vector<Rec>& ring = rings_[layer];
  const Rec rec{ev, eventsSeen_++};
  if (ring.size() < perLayer_) {
    ring.push_back(rec);
    return;
  }
  std::size_t& slot = next_[layer];
  ring[slot] = rec;
  slot = (slot + 1) % perLayer_;
}

void FlightRecorder::dump(std::ostream& os) const {
  char buf[256];
  std::uint64_t retained = 0;
  for (const auto& ring : rings_) retained += ring.size();
  std::snprintf(buf, sizeof(buf),
                "--- flight recorder: %llu events seen, last %llu retained "
                "(<= %zu per layer) ---\n",
                static_cast<unsigned long long>(eventsSeen_),
                static_cast<unsigned long long>(retained), perLayer_);
  os << buf;
  for (std::size_t layer = 0; layer < rings_.size(); ++layer) {
    const std::vector<Rec>& ring = rings_[layer];
    if (ring.empty()) continue;
    // Restore arrival order: the ring overwrites oldest-first from next_.
    std::vector<const Rec*> ordered;
    ordered.reserve(ring.size());
    for (const Rec& r : ring) ordered.push_back(&r);
    std::sort(ordered.begin(), ordered.end(),
              [](const Rec* a, const Rec* b) { return a->arrival < b->arrival; });
    os << "[" << layerName(static_cast<Layer>(layer)) << "]\n";
    for (const Rec* r : ordered) {
      const TraceEvent& ev = r->ev;
      std::snprintf(buf, sizeof(buf), "  t=%-12.6f %c tid=%-6d %-12s", ev.ts,
                    ev.phase, ev.tid, ev.name);
      os << buf;
      if (ev.phase == 'X') {
        std::snprintf(buf, sizeof(buf), " dur=%.6f", ev.dur);
        os << buf;
      }
      if (ev.hasBytes) {
        std::snprintf(buf, sizeof(buf), " bytes=%llu",
                      static_cast<unsigned long long>(ev.bytes));
        os << buf;
      }
      if (ev.src >= 0) {
        std::snprintf(buf, sizeof(buf), " %d->%d", ev.src, ev.dst);
        os << buf;
      }
      if (ev.hasValue) {
        std::snprintf(buf, sizeof(buf), " value=%g", ev.value);
        os << buf;
      }
      Phase phase;
      int depth;
      if (AttributionEngine::classify(ev, &phase, &depth)) {
        os << " phase=" << phaseName(phase);
      }
      os << "\n";
    }
  }
}

void registerFlightRecorder(const std::shared_ptr<FlightRecorder>& rec) {
  if (!rec) return;
  std::lock_guard<std::mutex> lock(registryMu());
  registry().push_back(rec);
}

std::size_t dumpFlightRecorders(std::ostream& os) {
  std::vector<std::shared_ptr<FlightRecorder>> live;
  {
    std::lock_guard<std::mutex> lock(registryMu());
    auto& recs = registry();
    std::erase_if(recs, [](const std::weak_ptr<FlightRecorder>& w) {
      return w.expired();
    });
    for (const auto& w : recs)
      if (auto rec = w.lock()) live.push_back(std::move(rec));
  }
  for (const auto& rec : live) rec->dump(os);
  return live.size();
}

}  // namespace bgckpt::obs
