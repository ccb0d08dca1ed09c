#include "mpisim/comm.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace bgckpt::mpi {
namespace {

using machine::Machine;
using machine::intrepidMachine;
using sim::MiB;
using sim::Scheduler;
using sim::Task;

// Full simulated-MPI stack on a small Intrepid partition.
struct Job {
  Scheduler sched;
  Machine mach;
  net::TorusNetwork torus;
  net::CollectiveNetwork coll;
  Runtime rt;

  explicit Job(int ranks = 256, std::uint64_t seed = 1)
      : mach(intrepidMachine(ranks)),
        torus(sched, mach),
        coll(mach),
        rt(sched, mach, torus, coll, seed) {}

  void run(std::function<Task<>(Comm)> program) {
    rt.spawnAll(std::move(program));
    sched.run();
    ASSERT_EQ(sched.liveRoots(), 0u) << "job deadlocked";
  }
};

TEST(MpiComm, WorldSizeAndRanks) {
  Job job(256);
  std::vector<int> seen;
  job.run([&seen](Comm comm) -> Task<> {
    EXPECT_EQ(comm.size(), 256);
    seen.push_back(comm.rank());
    co_return;
  });
  EXPECT_EQ(seen.size(), 256u);
  std::sort(seen.begin(), seen.end());
  for (int r = 0; r < 256; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], r);
}

TEST(MpiComm, SendRecvDeliversPayload) {
  Job job(256);
  std::vector<std::byte> got;
  job.run([&got](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      Message msg;
      msg.size = 4;
      msg.payload = std::make_shared<std::vector<std::byte>>(
          std::vector<std::byte>{std::byte{1}, std::byte{2}, std::byte{3},
                                 std::byte{4}});
      co_await comm.send(7, 42, std::move(msg));
    } else if (comm.rank() == 7) {
      Message msg = co_await comm.recv(0, 42);
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 42);
      got = *msg.payload;
    }
  });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], std::byte{4});
}

TEST(MpiComm, RecvBeforeSendSuspends) {
  Job job(256);
  double recvTime = -1.0;
  job.run([&recvTime](Comm comm) -> Task<> {
    if (comm.rank() == 1) {
      Message m = co_await comm.recv(kAnySource, 5);
      recvTime = comm.scheduler().now();
      EXPECT_EQ(m.size, MiB);
    } else if (comm.rank() == 2) {
      co_await comm.scheduler().delay(0.5);
      co_await comm.send(1, 5, Message::ofSize(MiB));
    }
  });
  EXPECT_GT(recvTime, 0.5);
}

TEST(MpiComm, TagsMatchSelectively) {
  Job job(256);
  std::vector<int> order;
  job.run([&order](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, /*tag=*/10, Message::ofSize(100));
      co_await comm.send(1, /*tag=*/20, Message::ofSize(200));
    } else if (comm.rank() == 1) {
      // Receive tag 20 first even though tag 10 arrives first.
      Message m20 = co_await comm.recv(0, 20);
      order.push_back(m20.tag);
      Message m10 = co_await comm.recv(0, 10);
      order.push_back(m10.tag);
      EXPECT_EQ(m20.size, 200u);
      EXPECT_EQ(m10.size, 100u);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{20, 10}));
}

TEST(MpiComm, AnySourceReceivesInArrivalOrder) {
  Job job(256);
  std::vector<int> sources;
  job.run([&sources](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        Message m = co_await comm.recv(kAnySource, 1);
        sources.push_back(m.source);
      }
    } else if (comm.rank() <= 3) {
      // Staggered arrivals: rank 1 at ~1s, rank 2 at ~2s, rank 3 at ~3s.
      co_await comm.scheduler().delay(static_cast<double>(comm.rank()));
      co_await comm.send(0, 1, Message::ofSize(64));
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{1, 2, 3}));
}

TEST(MpiComm, IsendCallIsMicrosecondsButDeliveryTakesTime) {
  Job job(256);
  double isendDone = -1.0, delivered = -1.0;
  job.run([&](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      // 64 MiB to a distant rank: the call must return in microseconds even
      // though the wire time is ~150 ms.
      Request req = co_await comm.isend(200, 9, Message::ofSize(64 * MiB));
      isendDone = comm.scheduler().now();
      co_await comm.wait(req);
    } else if (comm.rank() == 200) {
      co_await comm.recv(0, 9);
      delivered = comm.scheduler().now();
    }
  });
  EXPECT_LT(isendDone, 1e-3);
  EXPECT_GT(delivered, 100e-3);
}

TEST(MpiComm, BarrierSynchronisesAllRanks) {
  Job job(256);
  double maxBefore = 0.0, minAfter = 1e30;
  job.run([&](Comm comm) -> Task<> {
    co_await comm.scheduler().delay(static_cast<double>(comm.rank()) * 1e-3);
    maxBefore = std::max(maxBefore, comm.scheduler().now());
    co_await comm.barrier();
    minAfter = std::min(minAfter, comm.scheduler().now());
  });
  EXPECT_GE(minAfter, maxBefore);
}

TEST(MpiComm, AllReduceSumAndMax) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    const double sum =
        co_await comm.allReduceSum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(sum, 255.0 * 256.0 / 2.0);
    const double mx =
        co_await comm.allReduceMax(static_cast<double>(1000 - comm.rank()));
    EXPECT_DOUBLE_EQ(mx, 1000.0);
  });
}

TEST(MpiComm, ConsecutiveCollectivesKeepRoundsSeparate) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    for (int round = 1; round <= 5; ++round) {
      const double sum = co_await comm.allReduceSum(static_cast<double>(round));
      EXPECT_DOUBLE_EQ(sum, 256.0 * round);
    }
  });
}

TEST(MpiComm, BcastDeliversRootMessage) {
  Job job(256);
  int received = 0;
  job.run([&received](Comm comm) -> Task<> {
    Message mine;
    if (comm.rank() == 3) mine = Message::ofSize(12345);
    Message out = co_await comm.bcast(3, mine);
    EXPECT_EQ(out.size, 12345u);
    ++received;
    co_return;
  });
  EXPECT_EQ(received, 256);
}

TEST(MpiComm, BcastResultSurvivesTheRootsNextBcast) {
  // The root arrives last in round 1, so it resumes first and enters
  // round 2 (writing its next message) before the other ranks have
  // resumed from round 1: each round's result must be its own.
  Job job(256);
  int checked = 0;
  job.run([&checked](Comm comm) -> Task<> {
    if (comm.rank() == 7) co_await comm.scheduler().delay(1e-3);
    for (sim::Bytes round = 1; round <= 3; ++round) {
      const Message mine = Message::ofSize(round * 100);
      const Message out = co_await comm.bcast(7, mine);
      EXPECT_EQ(out.size, round * 100) << "rank " << comm.rank();
      ++checked;
    }
  });
  EXPECT_EQ(checked, 3 * 256);
}

TEST(MpiCommDeathTest, MismatchedCollectivesAbort) {
  EXPECT_DEATH(
      {
        Job job(256);
        job.run([](Comm comm) -> Task<> {
          if (comm.rank() == 0) {
            co_await comm.barrier();
          } else {
            co_await comm.allReduceSum(1.0);
          }
        });
      },
      "ranks entered different collectives");
}

TEST(MpiComm, AllGatherCollectsEveryValue) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    auto vals =
        co_await comm.allGatherU64(static_cast<std::uint64_t>(comm.rank()) * 10);
    EXPECT_EQ(vals.size(), 256u);
    for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], i * 10);
  });
}

TEST(MpiComm, SplitFormsGroupsWithLocalRanks) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    // 4 groups of 64 by rank/64 (the paper's np:nf = 64:1 grouping).
    Comm sub = co_await comm.split(comm.rank() / 64, comm.rank());
    EXPECT_EQ(sub.size(), 64);
    EXPECT_EQ(sub.rank(), comm.rank() % 64);
    EXPECT_EQ(sub.globalRank(sub.rank()), comm.rank());
    // Group-local collectives work and stay inside the group.
    const double sum =
        co_await sub.allReduceSum(static_cast<double>(sub.rank()));
    EXPECT_DOUBLE_EQ(sum, 63.0 * 64.0 / 2.0);
    // P2P within the subgroup: everyone sends to group-local 0.
    if (sub.rank() == 0) {
      for (int i = 1; i < sub.size(); ++i)
        co_await sub.recv(kAnySource, 7);
    } else {
      co_await sub.send(0, 7, Message::ofSize(128));
    }
  });
}

TEST(MpiComm, SplitByKeyReordersRanks) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    // Reverse order within one color.
    Comm sub = co_await comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), 255 - comm.rank());
    co_return;
  });
}

TEST(MpiComm, WaitAllCompletesAllRequests) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      for (int dst = 1; dst <= 8; ++dst)
        reqs.push_back(co_await comm.isend(dst, 3, Message::ofSize(MiB)));
      co_await comm.waitAll(reqs);
      for (const auto& r : reqs) EXPECT_TRUE(r.done());
    } else if (comm.rank() <= 8) {
      co_await comm.recv(0, 3);
    }
  });
}

TEST(MpiComm, PerceivedIsendTimesHaveHeavyTailButMicrosecondMedian) {
  Job job(1024);
  std::vector<double> costs;
  job.run([&costs](Comm comm) -> Task<> {
    const double t0 = comm.scheduler().now();
    Request r = co_await comm.isend((comm.rank() + 1) % comm.size(), 1,
                                    Message::ofSize(2400 * 1024));
    costs.push_back(comm.scheduler().now() - t0);
    co_await comm.wait(r);
    co_await comm.recv(kAnySource, 1);
  });
  ASSERT_EQ(costs.size(), 1024u);
  std::sort(costs.begin(), costs.end());
  const double median = costs[costs.size() / 2];
  const double mx = costs.back();
  EXPECT_GT(median, 3e-6);
  EXPECT_LT(median, 30e-6);   // ~10k CPU cycles at 850 MHz
  EXPECT_GT(mx, 3 * median);  // heavy tail (drives Table I's max)
}

TEST(MpiComm, LargeJobCompletes) {
  // Smoke: 16K ranks all-reduce then exchange within 64-rank groups.
  Job job(16384);
  int done = 0;
  job.run([&done](Comm comm) -> Task<> {
    Comm sub = co_await comm.split(comm.rank() / 64, comm.rank());
    if (sub.rank() == 0) {
      for (int i = 1; i < 64; ++i) co_await sub.recv(kAnySource, 2);
    } else {
      co_await sub.send(0, 2, Message::ofSize(64 * 1024));
    }
    co_await comm.barrier();
    ++done;
  });
  EXPECT_EQ(done, 16384);
}

}  // namespace
}  // namespace bgckpt::mpi
