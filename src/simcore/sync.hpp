// Higher-level synchronisation built on the scheduler: one-shot gates,
// cyclic barriers, and wait groups (fork/join counters).
#pragma once

#include <coroutine>
#include <cstddef>
#include <source_location>
#include <vector>

#include "simcore/scheduler.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::sim {

/// One-shot event: waiters suspend until `fire()`; waits after firing
/// complete immediately. Cannot be reset.
class Gate {
 public:
  explicit Gate(Scheduler& sched) : sched_(sched) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_)
      sched_.scheduleResume(0.0, h, WakeEdge{WakeKind::kGateFire, "gate"});
    waiters_.clear();
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const { return gate.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        gate.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for `parties` processes with a two-stage wake: every
/// party resumes `then` seconds after the last one arrives.
///
/// A party that does not complete the round parks its handle. The last
/// arrival calls release(), which queues one release event per parked
/// party (kBarrierRelease, label "barrier"). That event does not resume
/// the party: it requeues it `then` seconds later with the caller's source
/// location, which is the same time, sequence number and wake edge a
/// resumed party's own `co_await delay(then)` would produce. The last
/// arrival queues its own resume after the releases, so the event stream
/// matches arrive-then-delay exactly while the party needs no coroutine
/// frame of its own for the delay (mpisim's collectives rely on this).
class Barrier {
 public:
  Barrier(Scheduler& sched, std::size_t parties)
      : sched_(sched), parties_(parties) {
    SIM_CHECK(parties > 0, "Barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  std::size_t parties() const { return parties_; }
  std::size_t arrived() const { return waiters_.size(); }

  /// True when one more arrival completes the round.
  bool completesRound() const { return waiters_.size() + 1 == parties_; }

  /// An arriving party that does not complete the round waits here.
  void park(std::coroutine_handle<> h) {
    SIM_DCHECK(!completesRound(), "the last arrival must release instead");
    waiters_.push_back(h);
  }

  /// Complete the round from its last arrival `last`: wake every parked
  /// party (two-stage, see above) and queue `last`, all `then` seconds
  /// from now. The barrier is reset for the next round.
  void release(std::coroutine_handle<> last, Duration then,
               std::source_location loc = std::source_location::current()) {
    then_ = then;
    loc_ = loc;
    for (auto h : waiters_)
      sched_.scheduleCall(
          0.0, [this, h] { sched_.scheduleResume(then_, h, loc_); },
          WakeEdge{WakeKind::kBarrierRelease, "barrier"});
    waiters_.clear();
    sched_.scheduleResume(then, last, loc);
  }

 private:
  Scheduler& sched_;
  std::size_t parties_;
  std::vector<std::coroutine_handle<>> waiters_;
  // The round's delay and site, read by its release events. Safe to keep
  // here: the next round cannot complete before every party has resumed.
  Duration then_ = 0.0;
  std::source_location loc_;
};

/// Fork/join counter: `add()` before spawning work, `done()` when each piece
/// finishes, `wait()` suspends until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler& sched) : gate_(sched) {}

  void add(std::size_t n = 1) {
    SIM_CHECK(!gate_.fired(), "WaitGroup reused after completion");
    count_ += n;
  }

  void done() {
    SIM_CHECK(count_ > 0, "WaitGroup::done without a matching add");
    if (--count_ == 0) gate_.fire();
  }

  [[nodiscard]] auto wait() {
    if (count_ == 0) gate_.fire();
    return gate_.wait();
  }

  std::size_t pending() const { return count_; }

 private:
  Gate gate_;
  std::size_t count_ = 0;
};

}  // namespace bgckpt::sim
