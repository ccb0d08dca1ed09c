// Edge cases and lifetime semantics of the DES kernel.
#include <gtest/gtest.h>

#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/sync.hpp"

namespace bgckpt::sim {
namespace {

TEST(EdgeCases, ZeroDelayEventsPreserveProgramOrder) {
  Scheduler sched;
  std::vector<int> order;
  auto body = [](Scheduler& s, std::vector<int>& out, int id) -> Task<> {
    co_await s.delay(0.0);
    out.push_back(id);
    co_await s.delay(0.0);
    out.push_back(id + 100);
  };
  for (int i = 0; i < 3; ++i) sched.spawn(body(sched, order, i));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 101, 102}));
}

TEST(EdgeCases, RunTwiceContinuesWhereItStopped) {
  Scheduler sched;
  int fired = 0;
  sched.scheduleCall(1.0, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  sched.scheduleCall(1.0, [&] { ++fired; });  // at now=1 -> fires at t=2
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
}

TEST(EdgeCases, ScopedTokensMoveTransfersOwnership) {
  Scheduler sched;
  Resource res(sched, 2);
  auto body = [](Resource& r) -> Task<> {
    co_await r.acquire(2);
    ScopedTokens a(r, 2);
    {
      ScopedTokens b(std::move(a));
      EXPECT_EQ(r.available(), 0);
    }  // b releases
    EXPECT_EQ(r.available(), 2);
    // a must not double-release on destruction.
  };
  sched.spawn(body(res));
  sched.run();
  EXPECT_EQ(res.available(), 2);
}

TEST(EdgeCases, ScopedTokensMoveAssignReleasesOld) {
  Scheduler sched;
  Resource r1(sched, 1), r2(sched, 1);
  auto body = [](Resource& a, Resource& b) -> Task<> {
    co_await a.acquire(1);
    co_await b.acquire(1);
    ScopedTokens holdA(a, 1);
    ScopedTokens holdB(b, 1);
    holdA = std::move(holdB);  // must release r1's token immediately
    EXPECT_EQ(a.available(), 1);
    EXPECT_EQ(b.available(), 0);
  };
  sched.spawn(body(r1, r2));
  sched.run();
  EXPECT_EQ(r1.available(), 1);
  EXPECT_EQ(r2.available(), 1);
}

TEST(EdgeCases, GateFiredBeforeAnyWaiterIsCheap) {
  Scheduler sched;
  Gate gate(sched);
  gate.fire();
  int passes = 0;
  auto body = [](Gate& g, int& n) -> Task<> {
    for (int i = 0; i < 100; ++i) co_await g.wait();
    ++n;
  };
  sched.spawn(body(gate, passes));
  const auto events = sched.run();
  EXPECT_EQ(passes, 1);
  // Post-fire waits complete synchronously: only the spawn event runs.
  EXPECT_LE(events, 3u);
}

TEST(EdgeCases, ManyWaitersOnOneGateAllReleased) {
  Scheduler sched;
  Gate gate(sched);
  int released = 0;
  auto body = [](Gate& g, int& n) -> Task<> {
    co_await g.wait();
    ++n;
  };
  for (int i = 0; i < 1000; ++i) sched.spawn(body(gate, released));
  sched.scheduleCall(5.0, [&gate] { gate.fire(); });
  sched.run();
  EXPECT_EQ(released, 1000);
}

TEST(EdgeCases, RunUntilMidCoroutineResumesCleanly) {
  Scheduler sched;
  std::vector<double> marks;
  auto body = [](Scheduler& s, std::vector<double>& out) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await s.delay(1.0);
      out.push_back(s.now());
    }
  };
  sched.spawn(body(sched, marks));
  sched.runUntil(2.5);
  EXPECT_EQ(marks.size(), 2u);
  sched.run();
  EXPECT_EQ(marks.size(), 5u);
  EXPECT_DOUBLE_EQ(marks.back(), 5.0);
}

}  // namespace
}  // namespace bgckpt::sim
