#include "simcore/scheduler.hpp"

#include <gtest/gtest.h>

#include "simcore/arena.hpp"
#include "simcore/sync.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgckpt::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0.0);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Scheduler, CallbacksRunInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.scheduleCall(3.0, [&] { order.push_back(3); });
  sched.scheduleCall(1.0, [&] { order.push_back(1); });
  sched.scheduleCall(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SameTimeEventsRunInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    sched.scheduleCall(1.0, [&, i] { order.push_back(i); });
  sched.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NestedSchedulingAdvancesTime) {
  Scheduler sched;
  double sawTime = -1.0;
  sched.scheduleCall(1.0, [&] {
    sched.scheduleCall(2.5, [&] { sawTime = sched.now(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(sawTime, 3.5);
}

TEST(Scheduler, SpawnedTaskRunsAndCompletes) {
  Scheduler sched;
  bool ran = false;
  auto body = [&]() -> Task<> {
    ran = true;
    co_return;
  };
  sched.spawn(body());
  EXPECT_EQ(sched.liveRoots(), 1u);
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Scheduler, DelayAdvancesSimulatedTime) {
  Scheduler sched;
  std::vector<double> times;
  auto body = [&]() -> Task<> {
    times.push_back(sched.now());
    co_await sched.delay(1.5);
    times.push_back(sched.now());
    co_await sched.delay(0.25);
    times.push_back(sched.now());
  };
  sched.spawn(body());
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(times[2], 1.75);
}

TEST(Scheduler, NegativeDelayThrows) {
  Scheduler sched;
  EXPECT_THROW(static_cast<void>(sched.delay(-1.0)), SimulationError);
}

TEST(Scheduler, ManyProcessesInterleaveDeterministically) {
  Scheduler sched;
  std::vector<std::pair<int, int>> log;  // (proc, step)
  // NB: coroutine lambdas must be capture-free (captures live in the closure
  // object, which dies before the coroutine runs); state goes in parameters.
  auto body = [](Scheduler& s, std::vector<std::pair<int, int>>& out,
                 int p) -> Task<> {
    for (int step = 0; step < 3; ++step) {
      out.emplace_back(p, step);
      co_await s.delay(1.0);
    }
  };
  for (int p = 0; p < 4; ++p) sched.spawn(body(sched, log, p));
  sched.run();
  ASSERT_EQ(log.size(), 12u);
  // Within each time step, processes run in spawn order.
  for (int s = 0; s < 3; ++s)
    for (int p = 0; p < 4; ++p)
      EXPECT_EQ(log[static_cast<size_t>(s * 4 + p)],
                (std::pair<int, int>(p, s)));
}

TEST(Scheduler, RootExceptionPropagatesFromRun) {
  Scheduler sched;
  auto body = [&]() -> Task<> {
    co_await sched.delay(1.0);
    throw std::runtime_error("boom");
  };
  sched.spawn(body());
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, ExceptionInChildPropagatesToParentTask) {
  Scheduler sched;
  std::string caught;
  auto child = []() -> Task<> {
    throw std::runtime_error("child-error");
    co_return;  // unreachable; makes this a coroutine
  };
  auto parent = [&]() -> Task<> {
    try {
      co_await child();
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  };
  sched.spawn(parent());
  sched.run();
  EXPECT_EQ(caught, "child-error");
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.scheduleCall(1.0, [&] { ++fired; });
  sched.scheduleCall(2.0, [&] { ++fired; });
  sched.scheduleCall(5.0, [&] { ++fired; });
  sched.runUntil(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  sched.run();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler sched;
  sched.runUntil(7.0);
  EXPECT_DOUBLE_EQ(sched.now(), 7.0);
}

TEST(Scheduler, EventsProcessedCounts) {
  Scheduler sched;
  for (int i = 0; i < 10; ++i) sched.scheduleCall(1.0, [] {});
  EXPECT_EQ(sched.run(), 10u);
  EXPECT_EQ(sched.eventsProcessed(), 10u);
}

TEST(Scheduler, DeadlockLeavesLiveRoots) {
  Scheduler sched;
  Gate* leak = nullptr;  // intentionally never fired
  Gate gate(sched);
  leak = &gate;
  auto body = [&]() -> Task<> { co_await leak->wait(); };
  sched.spawn(body());
  sched.run();
  EXPECT_EQ(sched.liveRoots(), 1u);  // stuck process detected
}

// --- tiered event queue vs. the legacy priority_queue reference ----------

Scheduler::Config queueConfig(bool legacy) {
  Scheduler::Config cfg;
  cfg.legacyQueue = legacy;
  return cfg;
}

/// Both queue implementations must dispatch an arbitrary schedule in the
/// exact same order: (time, insertion seq). Uses a deterministic LCG so the
/// "random" schedule is identical on both sides, with timestamps spanning
/// many near-window reseeds plus duplicate-time runs.
TEST(Scheduler, TieredQueueMatchesLegacyDispatchOrder) {
  auto runSide = [](bool legacy) {
    Scheduler sched(queueConfig(legacy));
    std::vector<int> order;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<double>(lcg >> 33);
    };
    for (int i = 0; i < 2000; ++i) {
      double t = next() / 1e6;
      if (i % 7 == 0) t = 42.0;        // duplicate-time runs
      if (i % 13 == 0) t = t * 1e4;    // far-tier outliers
      sched.scheduleCall(t, [&order, i] { order.push_back(i); });
    }
    // Events scheduled from inside callbacks (time has advanced) as well.
    sched.scheduleCall(1.0, [&] {
      for (int i = 2000; i < 2100; ++i)
        sched.scheduleCall(static_cast<double>(i % 11),
                           [&order, i] { order.push_back(i); });
    });
    sched.run();
    return order;
  };
  const auto tiered = runSide(false);
  const auto legacy = runSide(true);
  ASSERT_EQ(tiered.size(), 2100u);
  EXPECT_EQ(tiered, legacy);
}

TEST(Scheduler, RunUntilStopsAcrossQueueWindowBoundaries) {
  // Timestamps spread over nine decades force multiple far-pool refills;
  // runUntil must still stop exactly at the boundary regardless of which
  // tier the next event sits in.
  Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    const double t = 1e-6 * std::pow(10.0, i % 9) * (1 + i);
    sched.scheduleCall(t, [&fired] { ++fired; });
  }
  const int before = fired;
  sched.runUntil(1.0);
  EXPECT_DOUBLE_EQ(sched.now(), 1.0);
  EXPECT_GT(fired, before);
  const int atBoundary = fired;
  sched.run();
  EXPECT_GT(fired, atBoundary);
  EXPECT_EQ(fired, 200);
}

TEST(Scheduler, EventPoolIsRecycledNotGrown) {
  // A self-rescheduling process keeps exactly one event in flight; the
  // node pool must recycle that slot instead of growing per event.
  Scheduler sched;
  auto body = [](Scheduler& s) -> Task<> {
    for (int i = 0; i < 1000; ++i) co_await s.delay(1.0);
  };
  sched.spawn(body(sched));
  sched.run();
  EXPECT_GE(sched.eventsProcessed(), 1000u);
  EXPECT_LE(sched.eventPoolSize(), 8u);
}

TEST(Scheduler, ReserveDoesNotChangeBehaviour) {
  Scheduler sized(Scheduler::Config{1 << 16, false});
  Scheduler unsized;
  std::vector<int> a, b;
  for (int i = 0; i < 100; ++i) {
    sized.scheduleCall(static_cast<double>(100 - i), [&a, i] { a.push_back(i); });
    unsized.scheduleCall(static_cast<double>(100 - i),
                         [&b, i] { b.push_back(i); });
  }
  sized.run();
  unsized.run();
  EXPECT_EQ(a, b);
}

TEST(FrameArena, CoroutineFramesHitThePool) {
#if BGCKPT_ARENA_PASSTHROUGH
  // Under ASan the arena forwards to plain operator new so the sanitizer
  // sees every frame; nothing is pooled and poolHits stays zero.
  GTEST_SKIP() << "arena passthrough active (sanitizer build): no pooling";
#endif
  const auto& stats = FrameArena::instance().stats();
  const std::uint64_t allocs0 = stats.allocs;
  const std::uint64_t hits0 = stats.poolHits;
  Scheduler sched;
  auto body = [](Scheduler& s) -> Task<> { co_await s.delay(1.0); };
  // First wave populates the free lists, second wave must be served from
  // them: frames are recycled, not re-carved from slabs.
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 64; ++i) sched.spawn(body(sched));
    sched.run();
  }
  const std::uint64_t allocs = stats.allocs - allocs0;
  const std::uint64_t hits = stats.poolHits - hits0;
  EXPECT_GE(allocs, 128u);  // every frame went through the arena
  EXPECT_GE(hits * 2, allocs);  // at least the second wave recycled
}

TEST(FrameArena, FreedSlabsServeOtherSizeClasses) {
#if BGCKPT_ARENA_PASSTHROUGH
  GTEST_SKIP() << "arena passthrough active (sanitizer build): no slabs";
#endif
  // A wave of 576-B frames, all freed, then a wave of 896-B frames: the
  // second wave must reuse the first wave's slabs instead of reserving
  // the sum of both classes' peaks.
  constexpr std::size_t kFrames = 2048;
  const auto wave = [](FrameArena& arena, std::size_t bytes,
                       std::vector<void*>& out) {
    for (std::size_t i = 0; i < kFrames; ++i) {
      void* p = arena.allocate(bytes);
      std::memset(p, 0xab, bytes);  // the block must really be usable
      out.push_back(p);
    }
  };
  std::size_t oneSlab = 0;
  std::size_t only896 = 0;
  {
    FrameArena single;
    single.deallocate(single.allocate(64), 64);
    oneSlab = single.stats().slabBytes;
    FrameArena probe;
    std::vector<void*> frames;
    wave(probe, 896, frames);
    only896 = probe.stats().slabBytes;
    for (void* p : frames) probe.deallocate(p, 896);
  }
  FrameArena arena;
  std::vector<void*> frames;
  wave(arena, 576, frames);
  const std::size_t only576 = arena.stats().slabBytes;
  for (void* p : frames) arena.deallocate(p, 576);
  frames.clear();
  wave(arena, 896, frames);
  // The 576-B class keeps one slab as its cache; the rest went back.
  EXPECT_LE(arena.stats().slabBytes, only896 + oneSlab);
  EXPECT_LT(arena.stats().slabBytes, only576 + only896 - oneSlab);
  std::sort(frames.begin(), frames.end());
  EXPECT_EQ(std::adjacent_find(frames.begin(), frames.end()), frames.end());
  for (void* p : frames) arena.deallocate(p, 896);
  EXPECT_EQ(arena.stats().liveBytes, 0u);
}

TEST(FrameArena, LiveBytesReturnToWatermarkAfterRun) {
  auto& arena = FrameArena::instance();
  const std::size_t live0 = arena.stats().liveBytes;
  {
    Scheduler sched;
    auto body = [](Scheduler& s) -> Task<> { co_await s.delay(1.0); };
    for (int i = 0; i < 256; ++i) sched.spawn(body(sched));
    sched.run();
  }
  // Every frame allocated during the run must have been returned.
  EXPECT_EQ(arena.stats().liveBytes, live0);
}

}  // namespace
}  // namespace bgckpt::sim
