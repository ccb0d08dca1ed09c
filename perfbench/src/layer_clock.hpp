// Host-time attribution of a simulation to the simulator's modules.
//
// LayerClock is a sim::SchedulerHooks installed on a stack's scheduler for
// the traced run. It charges the host time of every dispatched event to the
// module that woke it. The module comes from the event's WakeEdge label:
// either a source file (".../src/<module>/x.cpp", the label of a plain
// delay) or a Resource/primitive name mapped by a small table. Labels that
// match neither are charged to kOther and listed by name.
//
// The scheduler reports the label at schedule time and the dispatch only
// afterwards, without the event's identity. The clock therefore mirrors the
// queue: it keeps the (time, seq) key of every scheduled event and pops the
// minimum at each dispatch, which is exactly the event the scheduler popped
// (the queue dispatches in strict (time, seq) order). Like the scheduler,
// the mirror keeps events due at the current time in a FIFO and only later
// ones in a heap.
//
// An event's host time is the interval since the previous hook call, so it
// covers the queue pop, the handler and the hooks' own cost. Outside the
// event loop, the hooks bracket Scheduler::spawn: the time between a root
// task's onRootSpawned and its first scheduled resume is simcore's; the
// time from there to the next spawn (building the next rank program) is
// outside-loop time, charged to iolib. Time before the first and after the
// last hook call of a measured span (layout set-up, result gathering) is
// left unattributed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "simcore/scheduler.hpp"

namespace perfbench {

enum class Module : std::uint8_t {
  kSimcore = 0,
  kNetsim,
  kStorsim,
  kFssim,
  kMpisim,
  kMpiio,
  kIolib,
  kOther,
};
inline constexpr int kNumModules = 8;

const char* moduleName(Module m);

/// The module a WakeEdge label belongs to (kOther when unknown).
Module moduleForLabel(std::string_view label);

/// Share of a measured span the module times may leave unattributed (the
/// caller's work before the first and after the last hook call).
inline constexpr double kAttributionTolerance = 0.05;

/// Host seconds and dispatched events per module.
struct ModuleTimes {
  std::array<double, kNumModules> seconds{};
  std::array<std::uint64_t, kNumModules> events{};
  double outsideLoopSeconds = 0;  ///< outside-loop part of seconds[kIolib]

  double total() const;
  ModuleTimes& operator+=(const ModuleTimes& other);
};

class LayerClock final : public bgckpt::sim::SchedulerHooks {
 public:
  /// Installs itself on `sched`, replacing the stack's obs::SchedulerProbe
  /// with an equivalent one it forwards to, so `obs`'s scheduler metrics
  /// keep counting.
  LayerClock(bgckpt::sim::Scheduler& sched, bgckpt::obs::Observability& obs);
  /// Uninstalls (the scheduler is left without hooks).
  ~LayerClock() override;
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  /// Start a measured span: the next hook call starts the clock, so time
  /// spent by the caller between spans is never charged.
  void beginSpan() { running_ = false; }

  const ModuleTimes& times() const { return times_; }

  struct LabelStat {
    std::string label;
    Module module = Module::kOther;
    std::uint64_t events = 0;
    double seconds = 0;
  };
  /// Every label seen, merged by text and sorted by it.
  std::vector<LabelStat> labels() const;

  /// True when every mirrored event was dispatched (the mirror and the
  /// scheduler agree on the queue being empty).
  bool drained() const { return nowHead_ == nowFifo_.size() && later_.empty(); }

  void onDispatch(bgckpt::sim::SimTime now, std::size_t queueDepth) override;
  void onRootSpawned(std::uint64_t rootId, bgckpt::sim::SimTime now) override;
  void onRootDone(std::uint64_t rootId, bgckpt::sim::SimTime now) override;
  bool wantsScheduleEvents() const override { return true; }
  void onEventScheduled(std::uint64_t seq, std::uint64_t parentSeq,
                        bgckpt::sim::SimTime when, bgckpt::sim::WakeKind kind,
                        const char* label) override;

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    bgckpt::sim::SimTime when;
    std::uint64_t seq;
    std::uint32_t label;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint32_t labelIndex(const char* label);
  /// Remove and return the label index of the (time, seq)-minimal event.
  std::uint32_t popNext();
  /// Seconds since the previous hook call (0 for the first of a span).
  double lap();

  bgckpt::sim::Scheduler& sched_;
  bgckpt::obs::SchedulerProbe probe_;
  std::vector<Pending> nowFifo_;  // due at the time they were scheduled
  std::size_t nowHead_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, Later> later_;
  // Labels point at storage that outlives the run (resource names, string
  // literals, source-location file names), so the pointer is a stable key.
  // A run has a few dozen distinct pointers; a linear scan beats hashing.
  std::vector<const char*> labelKeys_;
  std::vector<LabelStat> labels_;
  ModuleTimes times_;
  Clock::time_point mark_{};
  bool running_ = false;
};

}  // namespace perfbench
