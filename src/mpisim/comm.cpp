#include "mpisim/comm.hpp"

#include "simcore/fifo.hpp"
#include "simcore/simcheck.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

namespace bgckpt::mpi {

namespace detail {

struct Group {
  using Kind = CollectiveCall::Kind;

  sim::Scheduler& sched;
  const machine::Machine& mach;
  net::TorusNetwork& torus;
  net::CollectiveNetwork& coll;
  obs::Observability* obs = nullptr;  // shared across subgroups
  std::shared_ptr<sim::RngStream> jitter;  // shared across subgroups
  std::vector<int> globalRanks;
  sim::Barrier barrier;  // direct member: Group itself lives behind shared_ptr

  struct Waiter {
    int src = kAnySource;
    int tag = 0;
    std::coroutine_handle<> handle;
    Message msg;
  };
  // Both queues allocate on first use: most ranks of a 32K-rank group
  // never receive a point-to-point message.
  struct Box {
    sim::Fifo<Message> queue;    // unmatched arrivals, in order
    sim::Fifo<Waiter*> waiters;  // suspended receivers, in order
  };
  std::vector<Box> boxes;

  // Collective scratch state. MPI requires every rank to enter collectives
  // in the same order, so one set of slots per group suffices. The last
  // arrival finalises the round's result before anyone resumes, and the
  // next round cannot finalise before every rank has resumed and read it.
  // The per-rank slots are sized by the first collective that needs them.
  Kind roundKind = Kind::kBarrier;  // set by the round's first arrival
  double reduceSumAccum = 0.0;
  double reduceMaxAccum = -std::numeric_limits<double>::infinity();
  double reduceSumResult = 0.0;
  double reduceMaxResult = 0.0;
  std::vector<std::uint64_t> gatherAccum;
  std::vector<std::uint64_t> gatherResult;
  std::shared_ptr<const std::vector<std::uint64_t>> gatherShared;
  Message bcastSlot;    // written by the root on arrival
  Message bcastResult;  // the round's message, moved out at finalise
  std::vector<std::tuple<int, int, int>> splitEntries;  // (color, key, rank)
  std::map<int, std::shared_ptr<Group>> splitGroups;
  std::vector<int> splitLocalRank;

  Group(sim::Scheduler& s, const machine::Machine& m, net::TorusNetwork& t,
        net::CollectiveNetwork& c, obs::Observability* o,
        std::shared_ptr<sim::RngStream> j, std::vector<int> ranks)
      : sched(s),
        mach(m),
        torus(t),
        coll(c),
        obs(o),
        jitter(std::move(j)),
        globalRanks(std::move(ranks)),
        barrier(s, globalRanks.size()),
        boxes(globalRanks.size()) {}

  int size() const { return static_cast<int>(globalRanks.size()); }

  static bool matches(const Message& msg, int wantSrc, int wantTag) {
    return (wantSrc == kAnySource || msg.source == wantSrc) &&
           msg.tag == wantTag;
  }

  void deliver(int dst, Message msg) {
    Box& box = boxes[static_cast<std::size_t>(dst)];
    for (auto it = box.waiters.begin(); it != box.waiters.end(); ++it) {
      if (matches(msg, (*it)->src, (*it)->tag)) {
        Waiter* w = *it;
        box.waiters.erase(it);
        w->msg = std::move(msg);
        sched.scheduleResume(
            0.0, w->handle,
            sim::WakeEdge{sim::WakeKind::kMessageDeliver, "mpi-deliver"});
        return;
      }
    }
    box.queue.push_back(std::move(msg));
  }

  /// Called by the last rank entering a collective: publish the round's
  /// result and reset the accumulators.
  void finalizeCollective(Kind kind) {
    switch (kind) {
      case Kind::kBarrier:
        break;
      case Kind::kBcast:
        bcastResult = std::move(bcastSlot);
        bcastSlot = Message{};
        break;
      case Kind::kSum:
        reduceSumResult = reduceSumAccum;
        reduceSumAccum = 0.0;
        break;
      case Kind::kMax:
        reduceMaxResult = reduceMaxAccum;
        reduceMaxAccum = -std::numeric_limits<double>::infinity();
        break;
      case Kind::kGather:
        gatherResult = gatherAccum;
        break;
      case Kind::kGatherShared:
        gatherShared =
            std::make_shared<const std::vector<std::uint64_t>>(gatherAccum);
        break;
      case Kind::kSplit:
        finalizeSplit();
        break;
    }
  }

  /// Simulated time every rank spends in a collective of `kind` after the
  /// last arrival (the collective/barrier networks' analytic costs).
  sim::Duration collectiveCost(Kind kind) const {
    const int n = size();
    switch (kind) {
      case Kind::kBarrier:
      case Kind::kSplit:
        return coll.barrierCost(n);
      case Kind::kBcast:
        return coll.broadcastCost(n, bcastResult.size);
      case Kind::kSum:
      case Kind::kMax:
        return coll.reduceCost(n, sizeof(double)) +
               coll.broadcastCost(n, sizeof(double));
      case Kind::kGather:
      case Kind::kGatherShared:
        return coll.reduceCost(n, sizeof(std::uint64_t)) +
               coll.broadcastCost(n, sizeof(std::uint64_t) *
                                         globalRanks.size());
    }
    return 0.0;
  }

  void finalizeSplit() {
    std::sort(splitEntries.begin(), splitEntries.end());  // color, key, rank
    splitGroups.clear();
    splitLocalRank.resize(globalRanks.size());
    std::map<int, std::vector<int>> members;  // color -> old local ranks
    for (const auto& [color, key, rank] : splitEntries)
      members[color].push_back(rank);
    for (auto& [color, ranks] : members) {
      std::vector<int> globals;
      globals.reserve(ranks.size());
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        splitLocalRank[static_cast<std::size_t>(ranks[i])] =
            static_cast<int>(i);
        globals.push_back(globalRanks[static_cast<std::size_t>(ranks[i])]);
      }
      splitGroups.emplace(color,
                          std::make_shared<Group>(sched, mach, torus, coll,
                                                  obs, jitter,
                                                  std::move(globals)));
    }
    splitEntries.clear();
  }
};

namespace {

sim::Task<> transferAndDeliver(std::shared_ptr<Group> g, int src, int dst,
                               Message msg,
                               std::shared_ptr<sim::Gate> gate) {
  const int srcGlobal = g->globalRanks[static_cast<std::size_t>(src)];
  const int dstGlobal = g->globalRanks[static_cast<std::size_t>(dst)];
  const sim::SimTime sendTime = g->sched.now();
  co_await g->torus.transfer(srcGlobal, dstGlobal, msg.size, msg.trace);
  if (g->obs)
    g->obs->message(srcGlobal, dstGlobal, msg.size, sendTime,
                    g->sched.now());
  g->deliver(dst, std::move(msg));
  gate->fire();
}

struct RecvAwaiter {
  Group& g;
  int me;
  Group::Waiter waiter;

  bool await_ready() {
    auto& box = g.boxes[static_cast<std::size_t>(me)];
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (Group::matches(*it, waiter.src, waiter.tag)) {
        waiter.msg = std::move(*it);
        box.queue.erase(it);
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    waiter.handle = h;
    g.boxes[static_cast<std::size_t>(me)].waiters.push_back(&waiter);
  }
  Message await_resume() { return std::move(waiter.msg); }
};

}  // namespace

}  // namespace detail

using detail::Group;

int Comm::size() const { return group_->size(); }

int Comm::globalRank(int localRank) const {
  return group_->globalRanks.at(static_cast<std::size_t>(localRank));
}

const machine::Machine& Comm::machine() const { return group_->mach; }

sim::Scheduler& Comm::scheduler() const { return group_->sched; }

sim::Task<Request> Comm::isend(int dst, int tag, Message msg) {
  auto& g = *group_;
  SIM_CHECK(dst >= 0 && dst < g.size(), "isend destination rank out of bounds");
  msg.tag = tag;
  msg.source = rank_;
  // The call itself: MPI software overhead plus a heavy-tailed jitter
  // (interrupts, allocation, retransmit slots). This is what a worker
  // "perceives" when shipping its checkpoint block to a writer.
  const sim::SimTime callStart = g.sched.now();
  co_await g.sched.delay(g.mach.compute().mpiOverhead +
                         g.jitter->lognormal(7e-6, 0.8));
  msg.trace.hop(obs::Hop::kHandoffSend, callStart, g.sched.now(), msg.size);
  auto gate = std::make_shared<sim::Gate>(g.sched);
  g.sched.spawn(
      detail::transferAndDeliver(group_, rank_, dst, std::move(msg), gate));
  co_return Request(gate);
}

sim::Task<> Comm::send(int dst, int tag, Message msg) {
  Request req = co_await isend(dst, tag, std::move(msg));
  co_await wait(req);
}

sim::Task<Message> Comm::recv(int src, int tag) {
  detail::RecvAwaiter awaiter{*group_, rank_, {src, tag, {}, {}}};
  Message msg = co_await awaiter;
  co_return msg;
}

sim::Task<> Comm::wait(Request req) {
  if (!req.valid()) co_return;
  co_await req.gate_->wait();
}

sim::Task<> Comm::waitAll(const std::vector<Request>& reqs) {
  for (const auto& r : reqs) co_await wait(r);
}

namespace detail {

void CollectiveCall::await_suspend(std::coroutine_handle<> h) {
  Group& g = *g_;
  t0_ = g.sched.now();
  if (g.barrier.arrived() == 0) g.roundKind = kind_;
  SIM_CHECK(g.roundKind == kind_,
            "ranks entered different collectives in the same round");
  if (!g.barrier.completesRound()) {
    g.barrier.park(h);
    return;
  }
  g.finalizeCollective(kind_);
  g.barrier.release(h, g.collectiveCost(kind_));
}

// One kMpi wait span per rank per collective, covering arrival through the
// barrier release and the analytic cost delay. Blocked-time attribution
// (obs/attr.hpp) classifies these as barrier wait, so the span must cover
// the full interval a rank is held inside the collective — notably the wait
// for stragglers, which is the paper's "blocked processor" component.
void CollectiveCall::emitSpan() const {
  const Group& g = *g_;
  if (g.obs)
    g.obs->complete(obs::Layer::kMpi,
                    g.globalRanks[static_cast<std::size_t>(rank_)],
                    kind_ == Kind::kBarrier ? "barrier" : "collective", t0_,
                    g.sched.now());
}

}  // namespace detail

void BcastCall::await_suspend(std::coroutine_handle<> h) {
  if (rank_ == root_) g_->bcastSlot = *msg_;
  CollectiveCall::await_suspend(h);
}

Message BcastCall::await_resume() const {
  emitSpan();
  return g_->bcastResult;
}

void ReduceCall::await_suspend(std::coroutine_handle<> h) {
  if (kind_ == Kind::kSum)
    g_->reduceSumAccum += value_;
  else
    g_->reduceMaxAccum = std::max(g_->reduceMaxAccum, value_);
  CollectiveCall::await_suspend(h);
}

double ReduceCall::await_resume() const {
  emitSpan();
  return kind_ == Kind::kSum ? g_->reduceSumResult : g_->reduceMaxResult;
}

template <typename Result>
void GatherCall<Result>::await_suspend(std::coroutine_handle<> h) {
  auto& accum = g_->gatherAccum;
  if (accum.empty()) accum.resize(g_->globalRanks.size());
  accum[static_cast<std::size_t>(rank_)] = value_;
  CollectiveCall::await_suspend(h);
}

template <typename Result>
Result GatherCall<Result>::await_resume() const {
  emitSpan();
  if constexpr (std::is_same_v<Result, std::vector<std::uint64_t>>)
    return g_->gatherResult;
  else
    return g_->gatherShared;
}

template class GatherCall<std::vector<std::uint64_t>>;
template class GatherCall<std::shared_ptr<const std::vector<std::uint64_t>>>;

void SplitCall::await_suspend(std::coroutine_handle<> h) {
  g_->splitEntries.emplace_back(color_, key_, rank_);
  CollectiveCall::await_suspend(h);
}

Comm SplitCall::await_resume() const {
  emitSpan();
  return Comm(g_->splitGroups.at(color_),
              g_->splitLocalRank[static_cast<std::size_t>(rank_)]);
}

Runtime::Runtime(sim::Scheduler& sched, const machine::Machine& mach,
                 net::TorusNetwork& torus, net::CollectiveNetwork& coll,
                 std::uint64_t seed, obs::Observability* obs) {
  std::vector<int> ranks(static_cast<std::size_t>(mach.numRanks()));
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<int>(i);
  world_ = std::make_shared<Group>(
      sched, mach, torus, coll, obs,
      std::make_shared<sim::RngStream>(seed, "mpi-isend"), std::move(ranks));
}

Runtime::~Runtime() = default;

void Runtime::spawnAll(std::function<sim::Task<>(Comm)> program) {
  // Pin the callable: rank coroutine frames reference its captures.
  programs_.push_back(std::make_shared<std::function<sim::Task<>(Comm)>>(
      std::move(program)));
  auto& fn = *programs_.back();
  for (int r = 0; r < world_->size(); ++r)
    world_->sched.spawn(fn(Comm(world_, r)));
}

Comm Runtime::world(int rank) const { return Comm(world_, rank); }

int Runtime::numRanks() const { return world_->size(); }

}  // namespace bgckpt::mpi
