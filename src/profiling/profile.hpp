// Darshan-style I/O profiling.
//
// IoProfileSink collects the per-rank operation intervals strategies emit
// on the kIo layer; the figure benches post-process them into the paper's
// plots: per-rank I/O-time scatters (Fig. 9) and write-activity timelines
// (Fig. 12).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "simcore/units.hpp"

namespace bgckpt::prof {

enum class Op : std::uint8_t {
  kCreate,
  kOpen,
  kWrite,
  kClose,
  kSend,   // worker -> writer handoff (rbIO)
  kRecv,   // writer side of the handoff
  kOther,
};

const char* opName(Op op);
/// Inverse of opName; nullopt for names that are not I/O ops (e.g. the
/// rbIO phase spans that share the obs kIo layer).
std::optional<Op> opFromName(std::string_view name);

struct OpRecord {
  int rank = -1;
  Op op = Op::kOther;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  sim::Bytes bytes = 0;

  sim::Duration duration() const { return end - start; }
};

class IoProfile {
 public:
  void record(int rank, Op op, sim::SimTime start, sim::SimTime end,
              sim::Bytes bytes = 0) {
    records_.push_back({rank, op, start, end, bytes});
  }
  void reserve(std::size_t n) { records_.reserve(n); }
  void clear() { records_.clear(); }

  const std::vector<OpRecord>& records() const { return records_; }

  /// Per-rank wall-clock I/O time: last end minus first start of that
  /// rank's records (the per-processor times of Figs. 9-11). Ranks with no
  /// records report 0.
  std::vector<double> perRankEnvelope(int numRanks) const;

  /// Per-rank sum of op durations (time actually blocked in I/O calls).
  std::vector<double> perRankBusy(int numRanks) const;

  /// Number of ranks with at least one record of `op` active in each time
  /// bin of width `binWidth` over [0, horizon) — the Fig. 12 timeline.
  /// Non-positive binWidth or horizon yields an empty timeline; records
  /// straddling the horizon count in every bin they overlap.
  std::vector<int> activityTimeline(Op op, double binWidth,
                                    double horizon) const;

  sim::Bytes totalBytes(Op op) const;
  std::uint64_t opCount(Op op) const;

 private:
  std::vector<OpRecord> records_;
};

/// Trace sink that replays the kIo event stream into an IoProfile, so the
/// legacy profile API (per-rank scatters, Fig. 12 timelines, the Darshan
/// report) is a consumer of the same events every other sink sees rather
/// than a parallel bookkeeping path.
class IoProfileSink final : public obs::TraceSink {
 public:
  explicit IoProfileSink(IoProfile& profile) : profile_(profile) {}

  void event(const obs::TraceEvent& ev) override {
    if (ev.phase != 'X') return;  // phase spans (B/E) are not op records
    const auto op = opFromName(ev.name);
    if (!op) return;
    profile_.record(ev.tid, *op, ev.ts, ev.ts + ev.dur, ev.bytes);
  }

  unsigned layerMask() const override {
    return obs::layerBit(obs::Layer::kIo);
  }

 private:
  IoProfile& profile_;
};

}  // namespace bgckpt::prof
