// Critical-path profiler: record the causal event graph, walk it backwards.
//
// Every scheduled event has exactly one causal parent: the event whose
// handler scheduled it (a task finishing a delay schedules its next step; a
// Resource::release schedules the admitted waiter; a delivered message
// schedules the matched receiver). The scheduler reports each edge through
// SchedulerHooks::onEventScheduled, annotated with a WakeKind and a label —
// the Resource name for grants, "barrier"/"mpi-deliver" for the
// sync primitives, and the scheduling site's file name for plain delays
// (which is where simulated time actually elapses: torus.cpp for network
// hops, fabric.cpp for storage service, parallel_fs.cpp for fs costs...).
//
// Dispatch time always equals the scheduled time in this simulator, so the
// executed graph is fully determined at schedule time; no dispatch hook is
// needed. The terminal event — max (time, seq), the last thing the
// simulation did — anchors the critical path: the predecessor chain that
// bounds the makespan. Walking it and bucketing each edge's duration by
// kind and label answers "what was the slowest chain doing, layer by
// layer": e.g. under coIO the path lives in storage service and token
// waits; under rbIO nf=ng it is writer-side fabric time, and the workers'
// barrier edges vanish from it.
//
// The recorder is a TraceSink only for lifecycle (finalize through the
// Observability hub, which also writes its JSON); it consumes no trace
// events (layerMask 0) — its input arrives through the scheduler hook
// fan-out in SchedulerProbe.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "simcore/scheduler.hpp"

namespace bgckpt::obs {

class CritPathRecorder final : public TraceSink {
 public:
  CritPathRecorder() = default;

  /// Fed by SchedulerProbe for every event scheduled.
  void onEventScheduled(std::uint64_t seq, std::uint64_t parentSeq,
                        sim::SimTime when, sim::WakeKind kind,
                        const char* label);

  // TraceSink lifecycle: no event input, finalize computes the path.
  void event(const TraceEvent&) override {}
  void finalize(sim::SimTime horizon) override;
  unsigned layerMask() const override { return 0; }

  struct Step {
    std::uint64_t seq = 0;
    sim::SimTime time = 0;       // dispatch time of this event
    sim::Duration edge = 0;      // time - parent's time
    sim::WakeKind kind = sim::WakeKind::kDelay;
    const char* label = nullptr;
  };
  struct Bucket {
    std::string label;
    double seconds = 0;
    std::uint64_t edges = 0;
  };
  struct Path {
    sim::SimTime horizon = 0;
    std::uint64_t eventsRecorded = 0;
    std::size_t steps = 0;               // chain length walked
    sim::SimTime pathSeconds = 0;        // sum of edge durations
    std::array<Bucket, sim::kNumWakeKinds> byKind{};  // label = kind name
    std::vector<Bucket> byLabel;         // descending seconds
    std::vector<Step> tail;              // last kTailSteps, chronological
    std::string toJson() const;
  };
  static constexpr std::size_t kTailSteps = 64;

  /// Walk the predecessor chain of the terminal event (max (time, seq)).
  /// Valid any time; finalize() caches the result in path().
  Path computePath(sim::SimTime horizon) const;

  const Path& path() const { return path_; }  // valid after finalize()

 private:
  struct Node {
    // Absolute parent seq; kNoParent for events scheduled outside the
    // event loop (also the padding value for hook-gap slots).
    std::uint64_t parent = sim::SchedulerHooks::kNoParent;
    sim::SimTime time = 0;
    sim::WakeKind kind = sim::WakeKind::kDelay;
    const char* label = nullptr;
  };
  // Dense by seq: the scheduler hands out consecutive sequence numbers, so
  // nodes_[seq - baseSeq_]. Events scheduled before the recorder attached
  // (parent < baseSeq_) terminate the walk.
  std::vector<Node> nodes_;
  std::uint64_t baseSeq_ = 0;
  bool haveBase_ = false;
  bool finalized_ = false;
  Path path_;
};

}  // namespace bgckpt::obs
