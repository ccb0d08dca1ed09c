// Discrete-event scheduler: the heart of the simulation.
//
// The scheduler owns a time-ordered event queue. Events are either plain
// callbacks or coroutine resumptions. Simulated processes are `Task<>`
// coroutines started with `spawn`; they advance simulated time by awaiting
// `delay(dt)` and interact through the synchronisation primitives in
// sync.hpp / resource.hpp, all of which route wakeups through this queue
// so that execution order is deterministic: (time, insertion sequence).
//
// Event storage is tiered for throughput (the queue is the hot path that
// bounds how large a machine the figure benches can afford):
//
//   tier 0  "now" FIFO     events at exactly the current time — the wakeups
//                          scheduled by Resource::release, Gate::fire and
//                          Barrier release. Pushed and popped in O(1) with
//                          no comparisons.
//   tier 1  near ring      a window of 256 time buckets. Events whose time
//                          falls inside the window append in O(1); a bucket
//                          is sorted once, when it becomes the active
//                          (lowest) bucket — a simplified ladder queue.
//   tier 2  far pool       an unsorted vector of 24-byte (time, seq, index)
//                          keys for events beyond the window: O(1) push.
//                          When the ring drains, one partition scan moves
//                          everything inside a new window (sized from the
//                          observed timestamp spread) into the buckets and
//                          compacts the rest — amortized O(1) per event,
//                          no heap sifting.
//
// Event payloads (coroutine handle / callback) live in a pooled free list,
// so steady-state scheduling performs no allocation and heap sifts move
// small PODs instead of whole events. All tiers pop in strict (time, seq)
// order, so the dispatch sequence is bit-identical to a single binary heap;
// `Config::legacyQueue` keeps the straightforward std::priority_queue
// implementation selectable as an A/B reference for determinism tests.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <source_location>
#include <stdexcept>
#include <vector>

#include "simcore/task.hpp"
#include "simcore/units.hpp"

namespace bgckpt::sim {

class SimChecker;

/// Thrown out of Scheduler::run when a root task exited with an exception.
class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Why an event was scheduled — the causal edge from the dispatching event
/// to the scheduled one. `kDelay` is a task advancing its own clock (the
/// default); everything else is one simulated process waking another.
/// obs::CritPathRecorder groups critical-path time by these kinds.
enum class WakeKind : std::uint8_t {
  kDelay = 0,        // co_await sched.delay(dt): self edge
  kSpawn,            // root task's first resume
  kResourceGrant,    // Resource::release admitted a queued waiter
  kGateFire,         // Gate::fire / WaitGroup completion
  kBarrierRelease,   // last Barrier arrival released the waiters
  kMessageDeliver,   // mpisim matched a message to a posted receive
  kCallback,         // scheduleCall timer/completion callback
};
inline constexpr int kNumWakeKinds = 7;

const char* wakeKindName(WakeKind kind);

/// Optional annotation carried by scheduleResume/scheduleCall: the wake
/// kind plus a label naming the waker (a Resource name, "barrier", ...).
/// The label must point at storage outliving the scheduler observation
/// (resource names and string literals both qualify). A null label falls
/// back to the scheduling site's file name, which gives delay edges a free
/// per-layer attribution (the file where the simulated time elapses).
struct WakeEdge {
  WakeKind kind = WakeKind::kDelay;
  const char* label = nullptr;
};

/// Observation points on the event loop. The scheduler holds at most one
/// hooks object (not owned) and calls it only when installed, so the
/// uninstrumented hot path pays a single null-pointer branch per event.
/// src/obs provides the standard implementation (obs::SchedulerProbe).
class SchedulerHooks {
 public:
  virtual ~SchedulerHooks() = default;
  /// After each event is dispatched. `queueDepth` is the post-pop depth.
  virtual void onDispatch(SimTime now, std::size_t queueDepth) = 0;
  /// A root task was spawned / finished (normally or with an error).
  /// `rootId` is a dense 0-based sequence number in spawn order.
  virtual void onRootSpawned(std::uint64_t rootId, SimTime now) = 0;
  virtual void onRootDone(std::uint64_t rootId, SimTime now) = 0;

  /// Opt-in firehose: one call per event *scheduled*, carrying the causal
  /// edge from the currently-dispatching event (`parentSeq`; kNoParent when
  /// scheduled from outside the event loop). The scheduler caches
  /// wantsScheduleEvents() at setHooks() time, so implementations that
  /// return false (the default) pay one predictable branch per schedule.
  /// Dispatch time always equals `when`, so recording the edge at schedule
  /// time fully determines the executed event graph.
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
  virtual bool wantsScheduleEvents() const { return false; }
  virtual void onEventScheduled(std::uint64_t /*seq*/,
                                std::uint64_t /*parentSeq*/, SimTime /*when*/,
                                WakeKind /*kind*/, const char* /*label*/) {}
};

class Scheduler {
 public:
  struct Config {
    /// Pre-reserve pool/heap storage for roughly this many queued events.
    std::size_t expectedEvents = 0;
    /// Use the reference std::priority_queue implementation instead of the
    /// tiered queue. Dispatch order is identical; this exists so tests can
    /// prove it (old-vs-new determinism regression).
    bool legacyQueue = false;
  };

  Scheduler() : Scheduler(Config{}) {}
  explicit Scheduler(const Config& config);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Pre-reserve queue storage for roughly `expectedEvents` queued events
  /// (a capacity hint; the queue still grows on demand).
  void reserve(std::size_t expectedEvents);

  /// Queue a coroutine resumption `delay` seconds from now. The defaulted
  /// source location attributes the scheduling site when a SimChecker is
  /// installed (past-event and tie-order-hazard reports). The WakeEdge
  /// overload annotates *why* (who woke whom) for causal-graph observers;
  /// the plain overload records the default self edge (WakeKind::kDelay).
  void scheduleResume(
      Duration delay, std::coroutine_handle<> h,
      std::source_location loc = std::source_location::current()) {
    scheduleResume(delay, h, WakeEdge{}, loc);
  }
  void scheduleResume(
      Duration delay, std::coroutine_handle<> h, WakeEdge edge,
      std::source_location loc = std::source_location::current());

  /// Queue a callback `delay` seconds from now.
  void scheduleCall(Duration delay, std::function<void()> fn,
                    std::source_location loc = std::source_location::current()) {
    scheduleCall(delay, std::move(fn), WakeEdge{WakeKind::kCallback, nullptr},
                 loc);
  }
  void scheduleCall(Duration delay, std::function<void()> fn, WakeEdge edge,
                    std::source_location loc = std::source_location::current());

  /// Awaitable that suspends the current task for `dt` simulated seconds.
  [[nodiscard]] auto delay(
      Duration dt, std::source_location loc = std::source_location::current()) {
    struct Awaiter {
      Scheduler& sched;
      Duration dt;
      std::source_location loc;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sched.scheduleResume(dt, h, loc);
      }
      void await_resume() const noexcept {}
    };
    if (dt < 0) throw SimulationError("negative delay");
    return Awaiter{*this, dt, loc};
  }

  /// Start a root process. It begins running when `run()` is next called.
  void spawn(Task<> task);

  /// Process events until the queue is empty. Rethrows the first root-task
  /// exception (after the queue drains or immediately on throw).
  /// Returns the number of events processed.
  std::uint64_t run();

  /// Process events with timestamps <= `untilTime`. Advances `now()` to
  /// `untilTime` if the queue empties earlier.
  std::uint64_t runUntil(SimTime untilTime);

  /// Root tasks spawned but not yet finished. Nonzero after run() returns
  /// means deadlock: someone is waiting on a wakeup that will never come.
  std::size_t liveRoots() const { return liveRoots_; }

  std::uint64_t eventsProcessed() const { return eventsProcessed_; }

  /// Events currently queued (diagnostic; sampled by SchedulerHooks).
  std::size_t queueDepth() const {
    return legacy_ ? legacyQueue_.size() : size_;
  }

  /// Event-pool slots ever allocated (diagnostic: a drained-and-refilled
  /// queue reuses slots instead of growing, which tests assert).
  std::size_t eventPoolSize() const { return pool_.size(); }

  /// Install (or clear, with nullptr) the observation hooks. The hooks
  /// object is borrowed and must outlive the scheduler or be cleared first.
  /// wantsScheduleEvents() is sampled here, once — re-call setHooks after
  /// changing what the hooks object wants.
  void setHooks(SchedulerHooks* hooks) {
    hooks_ = hooks;
    hooksWantSchedule_ = hooks != nullptr && hooks->wantsScheduleEvents();
  }

  /// Sequence number of the event being dispatched right now;
  /// SchedulerHooks::kNoParent outside the event loop. This is the parent
  /// of every event scheduled from the running handler.
  std::uint64_t dispatchingSeq() const { return dispatchingSeq_; }

  /// Install (or clear) the runtime invariant checker (simcheck.hpp).
  /// Borrowed; normally wired through SimChecker::attach. Resources query
  /// this at release/teardown, the dispatch loop feeds it event metadata.
  void setChecker(SimChecker* check);
  SimChecker* checker() const { return check_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kBuckets = 256;

  struct EventNode {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle;  // null => callback event
    std::function<void()> callback;
    std::uint32_t nextFree = kNil;
  };
  struct FarEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;
  };
  struct FarLater {  // max-heap adaptor ordering -> min-(time, seq) heap
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct FarEarlier {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// Scheduling-site metadata, kept in a side table parallel to the event
  /// pool so the checker-off hot path carries no extra per-node weight. Only
  /// written while a SimChecker is installed; `file == nullptr` marks slots
  /// scheduled before the checker attached.
  struct EventMeta {
    SimTime scheduledAt = 0.0;
    const char* file = nullptr;
    unsigned line = 0;
  };

  // Reference implementation (Config::legacyQueue).
  struct LegacyEvent {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::function<void()> callback;
    EventMeta meta;
  };
  struct LegacyLater {
    bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void scheduleAt(SimTime t, std::function<void()> fn, WakeEdge edge,
                  std::source_location loc);
  std::uint32_t allocNode();
  void freeNode(std::uint32_t idx);
  void pushIndex(std::uint32_t idx);
  void pushRing(std::uint32_t idx, SimTime t);
  /// Pop the globally minimal (time, seq) event; requires size_ > 0.
  std::uint32_t popReady();
  void popRing();
  void popNear();
  /// Make buckets_[activeBucket_] the sorted, non-empty lowest bucket.
  /// Requires ringCount_ > 0.
  void prepareActiveBucket();
  /// Seed a fresh window from the far heap; requires !far_.empty().
  void refillFromFar();
  /// Timestamp of the next event (infinity when empty).
  SimTime nextEventTime();
  /// Dispatch one event; requires a non-empty queue.
  void step();
  void stepLegacy();

  void noteRootDone(std::uint64_t rootId) {
    --liveRoots_;
    if (hooks_) hooks_->onRootDone(rootId, now_);
  }
  void noteRootFailed(std::uint64_t rootId, std::exception_ptr ep) {
    if (!firstError_) firstError_ = ep;
    --liveRoots_;
    if (hooks_) hooks_->onRootDone(rootId, now_);
  }

  friend struct RootRunner;

  // Event pool.
  std::vector<EventNode> pool_;
  std::uint32_t freeHead_ = kNil;

  // Tier 0: events at exactly now_, FIFO (== seq) order.
  std::vector<std::uint32_t> nowQ_;
  std::size_t nowHead_ = 0;

  // Tier 1: near-future ring. Bucket i covers
  // [windowLo_ + i * bucketWidth_, windowLo_ + (i + 1) * bucketWidth_).
  // Buckets carry (time, seq, idx) entries so activation sorts and head
  // comparisons stay cache-local instead of gather-loading the pool.
  // Events that land in the active bucket after it was sorted go to the
  // small `near_` heap instead (a middle-insert into the sorted bucket is
  // O(bucket) memmove, and short delays make it the common case).
  std::vector<std::vector<FarEntry>> buckets_;
  std::vector<FarEntry> near_;
  double bucketWidth_ = 0.0;  // 0 until the first window is seeded
  SimTime windowLo_ = 0.0;
  SimTime windowEnd_ = 0.0;
  std::size_t activeBucket_ = 0;
  std::size_t drainPos_ = 0;
  bool activeSorted_ = false;
  std::size_t ringCount_ = 0;

  // Tier 2: far-future pool, unsorted. farMin_/farMax_ are exact bounds,
  // maintained on push and recomputed by the refill partition scan.
  std::vector<FarEntry> far_;
  SimTime farMin_ = 0.0;
  SimTime farMax_ = 0.0;

  // srclint:allow(priority-queue): this is the legacy A/B reference queue
  // itself — Config::legacyQueue routes dispatch through it to prove the
  // tiered queue preserves (time, seq) order.
  std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, LegacyLater>
      legacyQueue_;
  const bool legacy_ = false;

  std::size_t size_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t nextRootId_ = 0;
  std::size_t liveRoots_ = 0;
  std::exception_ptr firstError_;
  SchedulerHooks* hooks_ = nullptr;
  bool hooksWantSchedule_ = false;
  std::uint64_t dispatchingSeq_ = SchedulerHooks::kNoParent;
  SimChecker* check_ = nullptr;
  std::vector<EventMeta> meta_;  // parallel to pool_; used iff check_ set
};

}  // namespace bgckpt::sim
