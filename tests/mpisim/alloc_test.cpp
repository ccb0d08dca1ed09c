// Building the per-rank simulator state must not allocate per rank.
//
// A 32K-rank run pays for every rank's mailbox and every torus port's wait
// queue before the first event, whether the rank ever receives a message
// or the port ever queues. These queues allocate on first use, so
// constructing mpi::Runtime and net::TorusNetwork costs a fixed handful of
// allocations plus the torus's port storage. This binary replaces the
// global operator new with a counting one, so it is its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "machine/bgp.hpp"
#include "mpisim/comm.hpp"
#include "netsim/torus.hpp"
#include "simcore/scheduler.hpp"

namespace {
std::atomic<std::size_t> gAllocs{0};
}  // namespace

void* operator new(std::size_t bytes) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bgckpt {
namespace {

constexpr int kRanks = 32768;

TEST(PerRankState, RuntimeConstructionAllocatesNothingPerRank) {
  sim::Scheduler sched;
  const machine::Machine mach = machine::intrepidMachine(kRanks);
  ASSERT_EQ(mach.numRanks(), kRanks);
  net::TorusNetwork torus(sched, mach);
  net::CollectiveNetwork coll(mach);
  const std::size_t before = gAllocs.load();
  mpi::Runtime rt(sched, mach, torus, coll, 7);
  const std::size_t allocs = gAllocs.load() - before;
  // The world group, its rank table, its mailbox array and the jitter
  // stream: a constant, where per-rank queues would be >= kRanks.
  EXPECT_LE(allocs, 16u) << "allocations building a " << kRanks
                         << "-rank mpi::Runtime";
  EXPECT_EQ(rt.numRanks(), kRanks);
}

TEST(PerRankState, TorusPortsAllocateNoWaitQueues) {
  sim::Scheduler sched;
  const machine::Machine mach = machine::intrepidMachine(kRanks);
  const std::size_t before = gAllocs.load();
  net::TorusNetwork torus(sched, mach);
  const std::size_t allocs = gAllocs.load() - before;
  // Two ports per node live in chunked storage (several ports per chunk);
  // a wait queue that allocated when empty would add >= 2 per port.
  const auto ports = static_cast<std::size_t>(2 * mach.numNodes());
  EXPECT_LT(allocs, ports / 4) << "allocations building the torus for "
                               << mach.numNodes() << " nodes";
  EXPECT_EQ(torus.injectionPort(0).queueLength(), 0u);
}

}  // namespace
}  // namespace bgckpt
