#include "simcore/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "simcore/arena.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::sim {

// Detached driver coroutine that owns a root Task for its whole lifetime and
// reports completion/failure back to the scheduler. It starts suspended so
// that spawn() can enqueue its first resume through the event queue (spawn
// order == first-run order); its frame self-destructs at final_suspend
// (suspend_never), by which point the owned Task local has been destroyed.
struct [[nodiscard]] RootRunner {
  struct promise_type : detail::FrameArenaAllocated {
    RootRunner get_return_object() {
      return RootRunner{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_never final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  [[nodiscard]] static RootRunner drive(Scheduler& sched, Task<> task,
                                        std::uint64_t id) {
    try {
      co_await std::move(task);
      sched.noteRootDone(id);
    } catch (...) {
      sched.noteRootFailed(id, std::current_exception());
    }
  }

  std::coroutine_handle<> handle;
};

Scheduler::Scheduler(const Config& config)
    : buckets_(kBuckets), legacy_(config.legacyQueue) {
  if (config.expectedEvents > 0) reserve(config.expectedEvents);
}

void Scheduler::reserve(std::size_t expectedEvents) {
  if (legacy_) return;  // the reference path keeps its textbook layout
  pool_.reserve(expectedEvents);
  far_.reserve(expectedEvents);
  nowQ_.reserve(std::min<std::size_t>(expectedEvents, 1u << 16));
}

// ------------------------------------------------------------ event pool --

std::uint32_t Scheduler::allocNode() {
  if (freeHead_ != kNil) {
    const std::uint32_t idx = freeHead_;
    freeHead_ = pool_[idx].nextFree;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Scheduler::freeNode(std::uint32_t idx) {
  EventNode& n = pool_[idx];
  n.handle = {};
  n.callback = nullptr;  // drop captures promptly
  n.nextFree = freeHead_;
  freeHead_ = idx;
}

// --------------------------------------------------------------- routing --

void Scheduler::pushIndex(std::uint32_t idx) {
  const SimTime t = pool_[idx].time;
  ++size_;
  if (t <= now_) {
    // Zero-delay wakeup: by far the most common event. All entries share
    // time == now_ and arrive in seq order, so a plain FIFO suffices.
    nowQ_.push_back(idx);
    return;
  }
  if (bucketWidth_ > 0.0 && t < windowEnd_) {
    pushRing(idx, t);
    return;
  }
  if (far_.empty()) {
    farMin_ = t;
    farMax_ = t;
  } else {
    if (t < farMin_) farMin_ = t;
    if (t > farMax_) farMax_ = t;
  }
  far_.push_back(FarEntry{t, pool_[idx].seq, idx});
}

void Scheduler::pushRing(std::uint32_t idx, SimTime t) {
  // Map to a bucket, clamped into [activeBucket_, kBuckets). Times that
  // land in an already-drained bucket (or below windowLo_ after a runUntil
  // fast-forward) clamp up to the active bucket; the activation sort puts
  // them in their correct (time, seq) slot, and every event in later
  // buckets is provably later, so global order is preserved.
  double raw = (t - windowLo_) / bucketWidth_;
  std::size_t i = raw <= 0.0 ? 0 : static_cast<std::size_t>(raw);
  if (i >= kBuckets) i = kBuckets - 1;  // fp rounding at the window edge
  if (i < activeBucket_) i = activeBucket_;
  if (i == activeBucket_ && activeSorted_) {
    // The active bucket is already sorted and partially drained. Delays
    // shorter than one bucket width land here constantly, so a sorted
    // middle-insert would be O(bucket) memmove per push; a small side heap
    // keeps this O(log n). popReady() merges it with the bucket head.
    near_.push_back(FarEntry{t, pool_[idx].seq, idx});
    std::push_heap(near_.begin(), near_.end(), FarLater{});
    return;
  }
  buckets_[i].push_back(FarEntry{t, pool_[idx].seq, idx});
  ++ringCount_;
}

void Scheduler::setChecker(SimChecker* check) {
  check_ = check;
  if (check_ != nullptr && meta_.size() < pool_.size())
    meta_.resize(pool_.size());
}

void Scheduler::prepareActiveBucket() {
  SIM_DCHECK(ringCount_ > 0, "prepareActiveBucket on an empty ring");
  while (drainPos_ >= buckets_[activeBucket_].size()) {
    buckets_[activeBucket_].clear();
    drainPos_ = 0;
    activeSorted_ = false;
    ++activeBucket_;
    SIM_DCHECK(activeBucket_ < kBuckets, "ringCount_ out of sync");
  }
  if (!activeSorted_) {
    std::vector<FarEntry>& bucket = buckets_[activeBucket_];
    std::sort(bucket.begin(), bucket.end(), FarEarlier{});
    activeSorted_ = true;
  }
}

void Scheduler::refillFromFar() {
  SIM_DCHECK(!far_.empty(), "refill with no far-pool events");
  const SimTime t0 = farMin_;
  // Size the window from the observed spread so a typical bucket holds a
  // handful of events. The window spans half the spread, so even when the
  // far pool's mass sits near farMax_, each refill at least halves the
  // remaining time range — the rescans shrink geometrically.
  const double spread = std::max(farMax_ - t0, 0.0);
  double width = spread > 0.0 ? spread / static_cast<double>(kBuckets * 2)
                              : 1.0;
  // Keep the window strictly wider than fp granularity at t0 so
  // windowEnd_ > windowLo_ always holds.
  width = std::max(width, std::max(std::abs(t0) * 1e-14, 1e-12));
  windowLo_ = t0;
  bucketWidth_ = width;
  windowEnd_ = windowLo_ + static_cast<double>(kBuckets) * width;
  activeBucket_ = 0;
  drainPos_ = 0;
  activeSorted_ = false;
  // One partition pass: everything inside the window goes to its bucket
  // (farMin_ == t0 guarantees at least one entry moves), the rest compacts
  // in place with fresh exact bounds.
  SimTime newMin = 0.0;
  SimTime newMax = 0.0;
  std::size_t keep = 0;
  for (std::size_t k = 0; k < far_.size(); ++k) {
    const FarEntry e = far_[k];
    if (e.time < windowEnd_) {
      double raw = (e.time - windowLo_) / bucketWidth_;
      std::size_t i = raw <= 0.0 ? 0 : static_cast<std::size_t>(raw);
      if (i >= kBuckets) i = kBuckets - 1;
      buckets_[i].push_back(e);
      ++ringCount_;
    } else {
      if (keep == 0 || e.time < newMin) newMin = e.time;
      if (keep == 0 || e.time > newMax) newMax = e.time;
      far_[keep++] = e;
    }
  }
  far_.resize(keep);
  farMin_ = newMin;
  farMax_ = newMax;
}

void Scheduler::popRing() {
  ++drainPos_;
  --ringCount_;
  if (drainPos_ == buckets_[activeBucket_].size()) {
    buckets_[activeBucket_].clear();
    drainPos_ = 0;
    activeSorted_ = false;
  }
}

void Scheduler::popNear() {
  std::pop_heap(near_.begin(), near_.end(), FarLater{});
  near_.pop_back();
}

std::uint32_t Scheduler::popReady() {
  SIM_DCHECK(size_ > 0, "pop from an empty event queue");
  --size_;
  // Merge the three future tiers: sorted-bucket head, near heap, now FIFO.
  // (The far heap never competes: its times are >= windowEnd_, strictly
  // beyond everything in the ring or near heap.)
  int src = 0;  // 0 none, 1 ring, 2 near
  std::uint32_t cIdx = kNil;
  SimTime cTime = 0.0;
  std::uint64_t cSeq = 0;
  if (ringCount_ > 0) {
    prepareActiveBucket();
    const FarEntry& e = buckets_[activeBucket_][drainPos_];
    cIdx = e.idx;
    cTime = e.time;
    cSeq = e.seq;
    src = 1;
  }
  if (!near_.empty()) {
    const FarEntry& e = near_.front();
    if (src == 0 || e.time < cTime || (e.time == cTime && e.seq < cSeq)) {
      cIdx = e.idx;
      cTime = e.time;
      cSeq = e.seq;
      src = 2;
    }
  }
  if (nowHead_ < nowQ_.size()) {
    // FIFO entries share time == now_; ring/near can hold an equal-time
    // event with a smaller seq (scheduled earlier, for what was then the
    // future) which must go first.
    const std::uint32_t nIdx = nowQ_[nowHead_];
    const EventNode& nn = pool_[nIdx];
    if (src == 0 || nn.time < cTime || (nn.time == cTime && nn.seq < cSeq)) {
      ++nowHead_;
      if (nowHead_ == nowQ_.size()) {
        nowQ_.clear();
        nowHead_ = 0;
      }
      return nIdx;
    }
  } else if (src == 0) {
    refillFromFar();
    prepareActiveBucket();
    cIdx = buckets_[activeBucket_][drainPos_].idx;
    src = 1;
  }
  if (src == 1) {
    popRing();
  } else {
    popNear();
  }
  return cIdx;
}

SimTime Scheduler::nextEventTime() {
  if (nowHead_ < nowQ_.size()) return now_;
  SimTime t = std::numeric_limits<SimTime>::infinity();
  if (ringCount_ > 0) {
    prepareActiveBucket();
    t = buckets_[activeBucket_][drainPos_].time;
  }
  if (!near_.empty() && near_.front().time < t) t = near_.front().time;
  if (t != std::numeric_limits<SimTime>::infinity()) return t;
  if (!far_.empty()) return farMin_;
  return std::numeric_limits<SimTime>::infinity();
}

// -------------------------------------------------------------- dispatch --

const char* wakeKindName(WakeKind kind) {
  switch (kind) {
    case WakeKind::kDelay: return "delay";
    case WakeKind::kSpawn: return "spawn";
    case WakeKind::kResourceGrant: return "resource_grant";
    case WakeKind::kGateFire: return "gate_fire";
    case WakeKind::kBarrierRelease: return "barrier_release";
    case WakeKind::kMessageDeliver: return "message_deliver";
    case WakeKind::kCallback: return "callback";
  }
  return "?";
}

void Scheduler::scheduleResume(Duration delayTime, std::coroutine_handle<> h,
                               WakeEdge edge, std::source_location loc) {
  const SimTime t = now_ + delayTime;
  const std::uint64_t seq = nextSeq_++;
  if (check_) check_->onSchedule(now_, t, loc);
  if (hooksWantSchedule_)
    hooks_->onEventScheduled(
        seq, dispatchingSeq_, t, edge.kind,
        edge.label != nullptr ? edge.label : loc.file_name());
  if (legacy_) {
    legacyQueue_.push(LegacyEvent{
        t, seq, h, nullptr,
        EventMeta{now_, loc.file_name(), loc.line()}});
    return;
  }
  const std::uint32_t idx = allocNode();
  EventNode& n = pool_[idx];
  n.time = t;
  n.seq = seq;
  n.handle = h;
  if (check_) {
    if (meta_.size() < pool_.size()) meta_.resize(pool_.size());
    meta_[idx] = EventMeta{now_, loc.file_name(), loc.line()};
  }
  pushIndex(idx);
}

void Scheduler::scheduleCall(Duration delayTime, std::function<void()> fn,
                             WakeEdge edge, std::source_location loc) {
  scheduleAt(now_ + delayTime, std::move(fn), edge, loc);
}

void Scheduler::scheduleAt(SimTime t, std::function<void()> fn, WakeEdge edge,
                           std::source_location loc) {
  const std::uint64_t seq = nextSeq_++;
  if (check_) check_->onSchedule(now_, t, loc);
  if (hooksWantSchedule_)
    hooks_->onEventScheduled(
        seq, dispatchingSeq_, t, edge.kind,
        edge.label != nullptr ? edge.label : loc.file_name());
  if (legacy_) {
    legacyQueue_.push(LegacyEvent{
        t, seq, nullptr, std::move(fn),
        EventMeta{now_, loc.file_name(), loc.line()}});
    return;
  }
  const std::uint32_t idx = allocNode();
  EventNode& n = pool_[idx];
  n.time = t;
  n.seq = seq;
  n.handle = nullptr;
  n.callback = std::move(fn);
  if (check_) {
    if (meta_.size() < pool_.size()) meta_.resize(pool_.size());
    meta_[idx] = EventMeta{now_, loc.file_name(), loc.line()};
  }
  pushIndex(idx);
}

void Scheduler::spawn(Task<> task) {
  ++liveRoots_;
  const std::uint64_t id = nextRootId_++;
  if (hooks_) hooks_->onRootSpawned(id, now_);
  RootRunner runner = RootRunner::drive(*this, std::move(task), id);
  scheduleResume(0.0, runner.handle, WakeEdge{WakeKind::kSpawn, "spawn"});
}

void Scheduler::step() {
  const std::uint32_t idx = popReady();
  EventNode& n = pool_[idx];
  now_ = n.time;
  dispatchingSeq_ = n.seq;
  const std::coroutine_handle<> h = n.handle;
  std::function<void()> cb;
  if (!h) cb = std::move(n.callback);
  if (check_) {
    const EventMeta meta = idx < meta_.size() ? meta_[idx] : EventMeta{};
    check_->onDispatch(now_, meta.scheduledAt, meta.file, meta.line);
    if (h && FrameArena::instance().pointerState(h.address()) ==
                 FrameArena::PointerState::kFreed)
      check_->onStaleResume(now_, h.address());
  }
  // Recycle the slot before dispatching so events scheduled from inside the
  // handler reuse it.
  freeNode(idx);
  ++eventsProcessed_;
  if (h) {
    h.resume();
  } else {
    cb();
  }
  dispatchingSeq_ = SchedulerHooks::kNoParent;
  if (hooks_) hooks_->onDispatch(now_, size_);
}

void Scheduler::stepLegacy() {
  LegacyEvent ev = legacyQueue_.top();
  legacyQueue_.pop();
  now_ = ev.time;
  dispatchingSeq_ = ev.seq;
  if (check_) {
    check_->onDispatch(now_, ev.meta.scheduledAt, ev.meta.file, ev.meta.line);
    if (ev.handle && FrameArena::instance().pointerState(ev.handle.address()) ==
                         FrameArena::PointerState::kFreed)
      check_->onStaleResume(now_, ev.handle.address());
  }
  ++eventsProcessed_;
  if (ev.handle) {
    ev.handle.resume();
  } else {
    ev.callback();
  }
  dispatchingSeq_ = SchedulerHooks::kNoParent;
  if (hooks_) hooks_->onDispatch(now_, legacyQueue_.size());
}

std::uint64_t Scheduler::run() {
  const std::uint64_t before = eventsProcessed_;
  if (legacy_) {
    while (!legacyQueue_.empty()) {
      stepLegacy();
      if (firstError_) break;
    }
  } else {
    while (size_ > 0) {
      step();
      if (firstError_) break;
    }
  }
  if (firstError_) {
    auto ep = std::exchange(firstError_, nullptr);
    std::rethrow_exception(ep);
  }
  return eventsProcessed_ - before;
}

std::uint64_t Scheduler::runUntil(SimTime untilTime) {
  const std::uint64_t before = eventsProcessed_;
  if (legacy_) {
    while (!legacyQueue_.empty() && legacyQueue_.top().time <= untilTime) {
      stepLegacy();
      if (firstError_) break;
    }
  } else {
    while (size_ > 0 && nextEventTime() <= untilTime) {
      step();
      if (firstError_) break;
    }
  }
  if (now_ < untilTime) now_ = untilTime;
  if (firstError_) {
    auto ep = std::exchange(firstError_, nullptr);
    std::rethrow_exception(ep);
  }
  return eventsProcessed_ - before;
}

}  // namespace bgckpt::sim
