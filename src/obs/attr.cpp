#include "obs/attr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "simcore/simcheck.hpp"

namespace bgckpt::obs {

const char* phaseName(Phase p) {
  switch (p) {
    case Phase::kCompute: return "compute";
    case Phase::kHandoffSend: return "handoff_send";
    case Phase::kHandoffRecv: return "handoff_recv";
    case Phase::kBarrier: return "barrier";
    case Phase::kTokenWait: return "token_wait";
    case Phase::kMetadata: return "metadata";
    case Phase::kWrite: return "write";
    case Phase::kClose: return "close";
    case Phase::kOther: return "other";
  }
  return "?";
}

bool AttributionEngine::classify(const TraceEvent& ev, Phase* phase,
                                 int* depth) {
  const char* n = ev.name;
  switch (ev.layer) {
    case Layer::kApp:
      // The checkpoint envelope: everything inside it that no deeper span
      // explains is "other" (library bookkeeping, phase gaps).
      if (std::strcmp(n, "checkpoint") == 0) {
        *phase = Phase::kOther;
        *depth = 1;
        return true;
      }
      return false;
    case Layer::kIo:
      // Leaf ops emitted by iolib. The rbIO grouping spans
      // (handoff/aggregate/commit) arrive as B/E and are skipped by
      // addEvent; their leaf ops carry the signal.
      if (std::strcmp(n, "send") == 0) {
        *phase = Phase::kHandoffSend;
      } else if (std::strcmp(n, "recv") == 0) {
        *phase = Phase::kHandoffRecv;
      } else if (std::strcmp(n, "create") == 0 ||
                 std::strcmp(n, "open") == 0) {
        *phase = Phase::kMetadata;
      } else if (std::strcmp(n, "write") == 0) {
        *phase = Phase::kWrite;
      } else if (std::strcmp(n, "close") == 0) {
        *phase = Phase::kClose;
      } else {
        return false;
      }
      *depth = 2;
      return true;
    case Layer::kMpi:
      // Collective wait spans nest inside kIo ops (a coIO write_all spends
      // most of its "write" span rendezvousing), so they classify deeper.
      // Point-to-point "message" spans describe the network, not the
      // blocked sender — a nonblocking isend returns immediately — so they
      // carry no attribution signal.
      if (std::strcmp(n, "barrier") == 0 || std::strcmp(n, "collective") == 0) {
        *phase = Phase::kBarrier;
        *depth = 3;
        return true;
      }
      return false;
    case Layer::kFilesystem:
      // The fs layer mirrors kIo's create/open/write/close per client;
      // counting both would double-cover. Only the token-negotiation wait,
      // which has no kIo counterpart, classifies — deepest of all: it can
      // sit inside a write which sits inside a collective window.
      if (std::strcmp(n, "token_wait") == 0) {
        *phase = Phase::kTokenWait;
        *depth = 4;
        return true;
      }
      return false;
    default:
      return false;
  }
}

void AttributionEngine::addEvent(const TraceEvent& ev) {
  if (ev.layer == Layer::kApp && std::strcmp(ev.name, "checkpoint") == 0 &&
      (ev.phase == 'B' || ev.phase == 'E')) {
    if (ev.phase == 'B') {
      openEnvelopes_.emplace_back(ev.tid, ev.ts);
      return;
    }
    // 'E': close this rank's most recent open envelope.
    for (auto it = openEnvelopes_.rbegin(); it != openEnvelopes_.rend();
         ++it) {
      if (it->first != ev.tid) continue;
      spans_.push_back(Span{ev.tid, static_cast<std::int8_t>(Phase::kOther),
                            1, it->second, ev.ts});
      openEnvelopes_.erase(std::next(it).base());
      return;
    }
    return;  // unmatched E: drop
  }
  if (ev.phase != 'X') return;
  Phase phase;
  int depth;
  if (!classify(ev, &phase, &depth)) return;
  spans_.push_back(Span{ev.tid, static_cast<std::int8_t>(phase),
                        static_cast<std::int8_t>(depth), ev.ts,
                        ev.ts + ev.dur});
}

double AttributionEngine::RankSlice::total() const {
  double t = 0;
  for (double s : seconds) t += s;
  return t;
}

double AttributionEngine::RankSlice::blocked() const {
  return total() - seconds[static_cast<int>(Phase::kCompute)];
}

double AttributionEngine::Report::blockedSeconds() const {
  double t = 0;
  for (int p = 0; p < kNumPhases; ++p)
    if (p != static_cast<int>(Phase::kCompute)) t += totals[p];
  return t;
}

double AttributionEngine::Report::partitionDefect() const {
  double worst = 0;
  for (const RankSlice& r : ranks)
    worst = std::max(worst, std::abs(r.total() - horizon));
  return worst;
}

AttributionEngine::Report AttributionEngine::compute(
    sim::SimTime horizon) const {
  struct Indexed {
    Span span;
    std::size_t idx;  // arrival order: last tie-break
  };
  std::vector<Indexed> all;
  all.reserve(spans_.size() + openEnvelopes_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    all.push_back(Indexed{spans_[i], i});
  // A run cut off mid-checkpoint leaves envelopes open; they extend to the
  // horizon so their ranks still partition exactly.
  for (std::size_t i = 0; i < openEnvelopes_.size(); ++i)
    all.push_back(Indexed{Span{openEnvelopes_[i].first,
                               static_cast<std::int8_t>(Phase::kOther), 1,
                               openEnvelopes_[i].second, horizon},
                          spans_.size() + i});
  // Clamp to [0, horizon] and drop empty spans.
  std::erase_if(all, [horizon](const Indexed& s) {
    return s.span.t0 >= horizon || s.span.t1 <= s.span.t0;
  });
  for (Indexed& s : all) s.span.t1 = std::min(s.span.t1, horizon);

  std::sort(all.begin(), all.end(), [](const Indexed& a, const Indexed& b) {
    if (a.span.rank != b.span.rank) return a.span.rank < b.span.rank;
    if (a.span.t0 != b.span.t0) return a.span.t0 < b.span.t0;
    return a.idx < b.idx;
  });

  Report report;
  report.horizon = horizon;
  std::size_t lo = 0;
  while (lo < all.size()) {
    std::size_t hi = lo;
    const int rank = all[lo].span.rank;
    while (hi < all.size() && all[hi].span.rank == rank) ++hi;

    RankSlice slice;
    slice.rank = rank;
    // Boundary sweep over this rank's spans. At each elementary segment the
    // deepest covering span (ties: later start, then arrival order) names
    // the phase; uncovered segments are compute. Every instant in
    // [0, horizon] lands in exactly one bucket, so the partition is exact.
    std::vector<sim::SimTime> bounds;
    bounds.reserve(2 * (hi - lo) + 2);
    bounds.push_back(0.0);
    bounds.push_back(horizon);
    for (std::size_t i = lo; i < hi; ++i) {
      bounds.push_back(all[i].span.t0);
      bounds.push_back(all[i].span.t1);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    std::vector<const Indexed*> active;
    std::size_t next = lo;
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
      const sim::SimTime a = bounds[b];
      const sim::SimTime z = bounds[b + 1];
      while (next < hi && all[next].span.t0 <= a) {
        active.push_back(&all[next]);
        ++next;
      }
      std::erase_if(active,
                    [a](const Indexed* s) { return s->span.t1 <= a; });
      const Indexed* best = nullptr;
      for (const Indexed* s : active) {
        if (best == nullptr || s->span.depth > best->span.depth ||
            (s->span.depth == best->span.depth &&
             (s->span.t0 > best->span.t0 ||
              (s->span.t0 == best->span.t0 && s->idx > best->idx))))
          best = s;
      }
      const int phase =
          best ? best->span.phase : static_cast<int>(Phase::kCompute);
      slice.seconds[static_cast<std::size_t>(phase)] += z - a;
    }
    for (int p = 0; p < kNumPhases; ++p)
      report.totals[static_cast<std::size_t>(p)] +=
          slice.seconds[static_cast<std::size_t>(p)];
    report.ranks.push_back(slice);
    lo = hi;
  }
  return report;
}

std::string AttributionEngine::Report::toJson() const {
  std::string out;
  out.reserve(128 + ranks.size() * 256);
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  };
  out += "{\n  \"horizon_seconds\": ";
  num(horizon);
  out += ",\n  \"totals\": {";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p) out += ", ";
    out += '"';
    out += phaseName(static_cast<Phase>(p));
    out += "\": ";
    num(totals[static_cast<std::size_t>(p)]);
  }
  out += "},\n  \"ranks\": [\n";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankSlice& r = ranks[i];
    out += "    {\"rank\": ";
    std::snprintf(buf, sizeof(buf), "%d", r.rank);
    out += buf;
    for (int p = 0; p < kNumPhases; ++p) {
      out += ", \"";
      out += phaseName(static_cast<Phase>(p));
      out += "\": ";
      num(r.seconds[static_cast<std::size_t>(p)]);
    }
    out += i + 1 < ranks.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void AttributionSink::event(const TraceEvent& ev) { engine_.addEvent(ev); }

void AttributionSink::finalize(sim::SimTime horizon) {
  if (finalized_) return;
  finalized_ = true;
  report_ = engine_.compute(horizon);
  // The partition invariant the module exists to uphold: every rank's
  // phases sum to the horizon, down to fp rounding of the sweep.
  const double tol = 1e-9 * std::max(1.0, static_cast<double>(horizon));
  SIM_CHECK(report_.partitionDefect() <= tol,
            "attribution phases must partition [0, horizon] per rank");
}

}  // namespace bgckpt::obs
