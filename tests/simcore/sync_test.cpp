#include "simcore/sync.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace bgckpt::sim {
namespace {

/// Arrive at `bar` and resume `then` seconds after the round's last
/// arrival: the protocol mpisim's collective awaiters follow.
struct Arrive {
  Barrier& bar;
  Duration then = 0.0;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    if (bar.completesRound())
      bar.release(h, then);
    else
      bar.park(h);
  }
  void await_resume() const noexcept {}
};

TEST(Gate, WaitersReleaseOnFire) {
  Scheduler sched;
  Gate gate(sched);
  std::vector<double> times;
  auto body = [](Scheduler& s, Gate& g, std::vector<double>& out) -> Task<> {
    co_await g.wait();
    out.push_back(s.now());
  };
  for (int i = 0; i < 3; ++i) sched.spawn(body(sched, gate, times));
  sched.scheduleCall(4.0, [&] { gate.fire(); });
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(Gate, WaitAfterFireCompletesImmediately) {
  Scheduler sched;
  Gate gate(sched);
  gate.fire();
  double t = -1.0;
  auto body = [&]() -> Task<> {
    co_await sched.delay(2.0);
    co_await gate.wait();
    t = sched.now();
  };
  sched.spawn(body());
  sched.run();
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(Gate, DoubleFireIsIdempotent) {
  Scheduler sched;
  Gate gate(sched);
  gate.fire();
  gate.fire();
  EXPECT_TRUE(gate.fired());
}

TEST(Barrier, AllPartiesReleaseTogether) {
  Scheduler sched;
  Barrier bar(sched, 4);
  std::vector<double> times;
  auto body = [](Scheduler& s, Barrier& b, std::vector<double>& out,
                 int i) -> Task<> {
    co_await s.delay(static_cast<double>(i));
    co_await Arrive{b};
    out.push_back(s.now());
  };
  for (int i = 0; i < 4; ++i) sched.spawn(body(sched, bar, times, i));
  sched.run();
  ASSERT_EQ(times.size(), 4u);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 3.0);  // slowest arrival
}

TEST(Barrier, CyclicReuseAcrossRounds) {
  Scheduler sched;
  constexpr int kParties = 3;
  constexpr int kRounds = 5;
  Barrier bar(sched, kParties);
  std::vector<int> roundsAt;  // completed round count per release
  auto body = [](Scheduler& s, Barrier& b, std::vector<int>& out,
                 int p) -> Task<> {
    for (int r = 0; r < kRounds; ++r) {
      co_await s.delay(static_cast<double>(p) * 0.1 + 0.01);
      co_await Arrive{b};
      out.push_back(r);
    }
  };
  for (int p = 0; p < kParties; ++p) sched.spawn(body(sched, bar, roundsAt, p));
  sched.run();
  ASSERT_EQ(roundsAt.size(), static_cast<size_t>(kParties * kRounds));
  // Every party must have finished round r before any enters round r+1.
  for (int r = 0; r < kRounds; ++r)
    for (int p = 0; p < kParties; ++p)
      EXPECT_EQ(roundsAt[static_cast<size_t>(r * kParties + p)], r);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Scheduler sched;
  Barrier bar(sched, 1);
  int passes = 0;
  auto body = [&]() -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await Arrive{bar};
      ++passes;
    }
  };
  sched.spawn(body());
  sched.run();
  EXPECT_EQ(passes, 10);
}

TEST(Barrier, ReleaseDelaysEveryPartyByThen) {
  Scheduler sched;
  Barrier bar(sched, 3);
  std::vector<double> times;
  auto body = [](Scheduler& s, Barrier& b, std::vector<double>& out,
                 int i) -> Task<> {
    co_await s.delay(static_cast<double>(i));
    co_await Arrive{b, 0.5};
    out.push_back(s.now());
  };
  for (int i = 0; i < 3; ++i) sched.spawn(body(sched, bar, times, i));
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 2.5);
  EXPECT_EQ(bar.arrived(), 0u);
}

/// Every event scheduled: (time, seq, kind, label).
class ScheduleLog final : public SchedulerHooks {
 public:
  using Entry = std::tuple<double, std::uint64_t, WakeKind, std::string>;
  void onDispatch(SimTime, std::size_t) override {}
  void onRootSpawned(std::uint64_t, SimTime) override {}
  void onRootDone(std::uint64_t, SimTime) override {}
  bool wantsScheduleEvents() const override { return true; }
  void onEventScheduled(std::uint64_t seq, std::uint64_t, SimTime when,
                        WakeKind kind, const char* label) override {
    entries.emplace_back(when, seq, kind, label);
  }
  std::vector<Entry> entries;
};

/// The arrive-then-delay barrier the two-stage release replaces: the last
/// arrival resumes every waiter at once (kBarrierRelease), and each
/// resumed party then pays the cost with its own delay.
class ReferenceBarrier {
 public:
  ReferenceBarrier(Scheduler& sched, std::size_t parties)
      : sched_(sched), parties_(parties) {}
  auto arriveAndWait() {
    struct Awaiter {
      ReferenceBarrier& bar;
      bool await_ready() {
        if (bar.waiters_.size() + 1 != bar.parties_) return false;
        for (auto h : bar.waiters_)
          bar.sched_.scheduleResume(
              0.0, h, WakeEdge{WakeKind::kBarrierRelease, "barrier"});
        bar.waiters_.clear();
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        bar.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  std::size_t parties_;
  std::vector<std::coroutine_handle<>> waiters_;
};

TEST(Barrier, TwoStageReleaseMatchesArriveThenDelay) {
  // 64 parties arrive at staggered times, twice, and each round costs a
  // delay after the release. Both barriers must schedule exactly the same
  // (time, seq, kind, label) sequence; delay labels fall back to this file.
  constexpr int kParties = 64;
  constexpr double kCost = 3.25e-6;
  const auto arrivalDelay = [](int p) {
    return 1e-6 * static_cast<double>((p * 37) % 11);
  };
  std::vector<ScheduleLog::Entry> reference;
  {
    Scheduler sched;
    ScheduleLog log;
    sched.setHooks(&log);
    ReferenceBarrier bar(sched, kParties);
    auto body = [&](int p) -> Task<> {
      for (int round = 0; round < 2; ++round) {
        co_await sched.delay(arrivalDelay(p + round));
        co_await bar.arriveAndWait();
        co_await sched.delay(kCost);
      }
    };
    for (int p = 0; p < kParties; ++p) sched.spawn(body(p));
    sched.run();
    sched.setHooks(nullptr);
    reference = log.entries;
  }
  Scheduler sched;
  ScheduleLog log;
  sched.setHooks(&log);
  Barrier bar(sched, kParties);
  auto body = [&](int p) -> Task<> {
    for (int round = 0; round < 2; ++round) {
      co_await sched.delay(arrivalDelay(p + round));
      co_await Arrive{bar, kCost};
    }
  };
  for (int p = 0; p < kParties; ++p) sched.spawn(body(p));
  sched.run();
  sched.setHooks(nullptr);
  EXPECT_EQ(sched.liveRoots(), 0u);
  ASSERT_EQ(log.entries.size(), reference.size());
  EXPECT_EQ(log.entries, reference);
  // The release events still carry the barrier edge (2 rounds x 63).
  std::size_t releases = 0;
  for (const auto& e : log.entries)
    if (std::get<2>(e) == WakeKind::kBarrierRelease) ++releases;
  EXPECT_EQ(releases, 2u * (kParties - 1));
}

TEST(WaitGroup, JoinsAllWorkers) {
  Scheduler sched;
  WaitGroup wg(sched);
  double joinTime = -1.0;
  auto worker = [](Scheduler& s, WaitGroup& w, int i) -> Task<> {
    co_await s.delay(static_cast<double>(i));
    w.done();
  };
  for (int i = 1; i <= 4; ++i) {
    wg.add();
    sched.spawn(worker(sched, wg, i));
  }
  auto joiner = [&]() -> Task<> {
    co_await wg.wait();
    joinTime = sched.now();
  };
  sched.spawn(joiner());
  sched.run();
  EXPECT_DOUBLE_EQ(joinTime, 4.0);
}

TEST(WaitGroup, WaitWithNoWorkCompletesImmediately) {
  Scheduler sched;
  WaitGroup wg(sched);
  bool done = false;
  auto body = [&]() -> Task<> {
    co_await wg.wait();
    done = true;
  };
  sched.spawn(body());
  sched.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace bgckpt::sim
