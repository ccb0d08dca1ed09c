#include "simcore/resource.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simcore/fifo.hpp"

namespace bgckpt::sim {
namespace {

TEST(Resource, ImmediateAcquireWhenAvailable) {
  Scheduler sched;
  Resource res(sched, 4);
  bool done = false;
  auto body = [&]() -> Task<> {
    co_await res.acquire(3);
    EXPECT_EQ(res.available(), 1);
    res.release(3);
    done = true;
  };
  sched.spawn(body());
  sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(res.available(), 4);
}

TEST(Resource, AcquireSuspendsUntilRelease) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<double> acquireTimes;
  auto body = [](Scheduler& s, Resource& r, std::vector<double>& out) -> Task<> {
    co_await r.acquire();
    out.push_back(s.now());
    co_await s.delay(2.0);
    r.release();
  };
  for (int i = 0; i < 3; ++i) sched.spawn(body(sched, res, acquireTimes));
  sched.run();
  ASSERT_EQ(acquireTimes.size(), 3u);
  EXPECT_DOUBLE_EQ(acquireTimes[0], 0.0);
  EXPECT_DOUBLE_EQ(acquireTimes[1], 2.0);
  EXPECT_DOUBLE_EQ(acquireTimes[2], 4.0);
}

TEST(Resource, FifoNoBypassByLaterSmallRequest) {
  Scheduler sched;
  Resource res(sched, 4);
  std::vector<int> order;
  // P0 takes everything; P1 asks for 3 (must wait); P2 asks for 1 and could
  // fit after P0 partially releases, but FIFO discipline holds it behind P1.
  auto p0 = [&]() -> Task<> {
    co_await res.acquire(4);
    co_await sched.delay(1.0);
    res.release(1);  // 1 token free; P1 (head) still cannot run
    co_await sched.delay(1.0);
    res.release(3);
    order.push_back(0);
  };
  auto p1 = [&]() -> Task<> {
    co_await sched.delay(0.1);
    co_await res.acquire(3);
    order.push_back(1);
    res.release(3);
  };
  auto p2 = [&]() -> Task<> {
    co_await sched.delay(0.2);
    co_await res.acquire(1);
    order.push_back(2);
    res.release(1);
  };
  sched.spawn(p0());
  sched.spawn(p1());
  sched.spawn(p2());
  sched.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // P1 admitted before P2 despite needing more
  EXPECT_EQ(order[2], 2);
}

TEST(Resource, FifoEvenWhenTokensFree) {
  Scheduler sched;
  Resource res(sched, 2);
  std::vector<int> order;
  auto holder = [&]() -> Task<> {
    co_await res.acquire(2);
    co_await sched.delay(1.0);
    res.release(2);
  };
  auto waiter = [&]() -> Task<> {
    co_await sched.delay(0.5);
    co_await res.acquire(2);
    order.push_back(1);
    res.release(2);
  };
  auto late = [&]() -> Task<> {
    co_await sched.delay(2.0);
    co_await res.acquire(1);
    order.push_back(2);
    res.release(1);
  };
  sched.spawn(holder());
  sched.spawn(waiter());
  sched.spawn(late());
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Resource, ScopedTokensReleaseOnScopeExit) {
  Scheduler sched;
  Resource res(sched, 2);
  auto body = [&]() -> Task<> {
    {
      co_await res.acquire(2);
      ScopedTokens hold(res, 2);
      EXPECT_EQ(res.available(), 0);
    }
    EXPECT_EQ(res.available(), 2);
  };
  sched.spawn(body());
  sched.run();
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Resource, QueueLengthTracksWaiters) {
  Scheduler sched;
  Resource res(sched, 1);
  auto holder = [&]() -> Task<> {
    co_await res.acquire();
    co_await sched.delay(10.0);
    res.release();
  };
  sched.spawn(holder());
  auto w = [](Resource& r) -> Task<> {
    co_await r.acquire();
    r.release();
  };
  for (int i = 0; i < 5; ++i) sched.spawn(w(res));
  sched.runUntil(5.0);
  EXPECT_EQ(res.queueLength(), 5u);
  sched.run();
  EXPECT_EQ(res.queueLength(), 0u);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Resource, FifoOrderAndQueueLengthHoldAcrossCompaction) {
  // 100 users queue at t=0 and one more arrives every 0.5 s for 100 s,
  // while grants run at 1/s: the wait queue grows to ~150, never drains
  // until the end, and compacts its popped prefix along the way.
  Scheduler sched;
  Resource res(sched, 1);
  int arrived = 0;
  int granted = 0;
  std::vector<int> grantOrder;
  auto user = [&](int id) -> Task<> {
    ++arrived;
    co_await res.acquire();
    ++granted;
    grantOrder.push_back(id);
    co_await sched.delay(1.0);
    res.release();
  };
  int next = 0;
  for (; next < 100; ++next) sched.spawn(user(next));
  auto feeder = [&]() -> Task<> {
    for (int k = 0; k < 200; ++k) {
      co_await sched.delay(0.5);
      sched.spawn(user(next++));
    }
  };
  sched.spawn(feeder());
  // Between grants (at whole seconds) nothing is in flight, so every
  // arrived-but-ungranted user must be in the queue.
  std::size_t samples = 0;
  for (int k = 0; k < 300; ++k)
    sched.scheduleCall(k + 0.25, [&] {
      EXPECT_EQ(res.queueLength(),
                static_cast<std::size_t>(arrived - granted))
          << "at t=" << sched.now();
      ++samples;
    });
  sched.run();
  EXPECT_EQ(samples, 300u);
  ASSERT_EQ(grantOrder.size(), 300u);
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(grantOrder[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(res.queueLength(), 0u);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Fifo, EraseAndPopKeepArrivalOrderAcrossCompaction) {
  Fifo<int> q;
  std::vector<int> model;
  int next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 7; ++k) {
      q.push_back(next);
      model.push_back(next++);
    }
    for (int k = 0; k < 5; ++k) {
      q.pop_front();
      model.erase(model.begin());
    }
    // Erase one from the middle, as a mailbox match does.
    auto it = q.begin() + static_cast<std::ptrdiff_t>(q.size() / 2);
    const int gone = *it;
    q.erase(it);
    model.erase(std::find(model.begin(), model.end(), gone));
    ASSERT_EQ(q.size(), model.size());
    ASSERT_TRUE(std::equal(q.begin(), q.end(), model.begin()));
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), model.front());
    q.pop_front();
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

}  // namespace
}  // namespace bgckpt::sim
