// Blocked-time attribution: classify every rank's simulated time into
// exclusive phases.
//
// The paper's perceived-performance argument (Eqs. 1-7) is about *blocked
// processor time*: how long each worker is held inside the checkpoint
// instead of computing. The trace stream already records what every layer
// did; this module turns those overlapping spans into an exclusive
// partition of [0, horizon] per rank:
//
//   compute       - time covered by no instrumented span at all
//   handoff_send  - rbIO worker shipping its block to a writer (kIo "send")
//   handoff_recv  - rbIO writer draining worker blocks (kIo "recv")
//   barrier       - held inside an MPI barrier/collective (kMpi spans)
//   token_wait    - GPFS byte-range/size token negotiation (kFilesystem)
//   metadata      - file create/open (kIo "create"/"open")
//   write         - data path of a write op (kIo "write" minus inner waits)
//   close         - kIo "close"
//   other         - inside the checkpoint envelope but in none of the above
//
// Overlaps resolve by specificity: the kApp checkpoint envelope (depth 1)
// loses to kIo ops (depth 2), which lose to MPI collective waits (depth 3),
// which lose to filesystem token waits (depth 4). The deepest span covering
// an instant names its phase — e.g. a coIO rank inside MPI_File_write_all
// spends its "write" span mostly inside collective barriers, and those
// instants are barrier wait, not write. By construction the phases
// partition [0, horizon] exactly (checked with a SIM_CHECK-style invariant
// in AttributionSink::finalize).
//
// AttributionEngine is the pure computation (also reused offline by
// tools/trace_report on JSONL logs); AttributionSink adapts it as a
// TraceSink attached to a live Observability hub.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace bgckpt::obs {

enum class Phase : int {
  kCompute = 0,
  kHandoffSend,
  kHandoffRecv,
  kBarrier,
  kTokenWait,
  kMetadata,
  kWrite,
  kClose,
  kOther,
};
inline constexpr int kNumPhases = 9;

const char* phaseName(Phase p);

class AttributionEngine {
 public:
  /// Layers the classification consumes; everything else is noise here.
  static constexpr unsigned kMask = layerBit(Layer::kApp) |
                                    layerBit(Layer::kIo) |
                                    layerBit(Layer::kMpi) |
                                    layerBit(Layer::kFilesystem);

  /// Map one trace event to a (phase, specificity depth) contribution.
  /// Returns false for events that carry no attribution signal (counter
  /// samples, kMpi point-to-point messages, kFilesystem op mirrors of kIo
  /// ops, the rbIO phase-grouping B/E spans).
  static bool classify(const TraceEvent& ev, Phase* phase, int* depth);

  /// Feed events in emission order (B/E checkpoint envelopes must nest).
  void addEvent(const TraceEvent& ev);

  struct RankSlice {
    int rank = 0;
    std::array<double, kNumPhases> seconds{};
    double total() const;
    /// Everything except compute: the rank was inside checkpoint machinery.
    double blocked() const;
  };

  struct Report {
    sim::SimTime horizon = 0;
    std::vector<RankSlice> ranks;  // ascending rank; only ranks seen
    std::array<double, kNumPhases> totals{};
    double blockedSeconds() const;
    /// Max |sum(phases) - horizon| across ranks — the partition defect.
    /// Exactly 0 by construction; exported so tests can assert it.
    double partitionDefect() const;
    std::string toJson() const;
  };

  /// Sweep all recorded spans into the exclusive partition. Spans are
  /// clamped to [0, horizon]; instants covered by several spans go to the
  /// deepest (ties: later start, then later arrival). `const`: callable
  /// repeatedly / at several horizons.
  Report compute(sim::SimTime horizon) const;

 private:
  struct Span {
    int rank;
    std::int8_t phase;
    std::int8_t depth;
    sim::SimTime t0;
    sim::SimTime t1;
  };
  std::vector<Span> spans_;
  // Open kApp "checkpoint" envelope per rank (B seen, E pending).
  std::vector<std::pair<int, sim::SimTime>> openEnvelopes_;
};

/// TraceSink adaptor: collects events during the run, computes the report
/// at Observability::finalize(horizon) and keeps it readable in-process
/// (the eq7 bench reads measured blocked time from here; the hub writes
/// its JSON when an `attr` artifact is registered).
class AttributionSink final : public TraceSink {
 public:
  AttributionSink() = default;

  void event(const TraceEvent& ev) override;
  void finalize(sim::SimTime horizon) override;
  unsigned layerMask() const override { return AttributionEngine::kMask; }

  bool finalized() const { return finalized_; }
  /// Valid after finalize().
  const AttributionEngine::Report& report() const { return report_; }
  const AttributionEngine& engine() const { return engine_; }

 private:
  AttributionEngine engine_;
  AttributionEngine::Report report_;
  bool finalized_ = false;
};

}  // namespace bgckpt::obs
