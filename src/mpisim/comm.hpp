// Simulated MPI: communicators, point-to-point, and collectives.
//
// Each MPI rank is a coroutine. Point-to-point messages travel over the
// simulated torus (netsim) and are matched (source, tag) in arrival order at
// the destination's mailbox, like a real MPI progress engine. Collectives
// use the dedicated collective/barrier networks' analytic cost model, since
// on Blue Gene they run on separate hardware and are effectively
// contention-free for this workload.
//
// Nonblocking-send semantics follow the paper's measurement model: the
// `isend` *call* costs only software overhead (a few microseconds with a
// heavy-tailed jitter — this is exactly the "perceived write" time of
// Table I); the returned Request completes at delivery.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "machine/bgp.hpp"
#include "netsim/torus.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/random.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

namespace bgckpt::mpi {

/// Matches any source rank in recv().
inline constexpr int kAnySource = -1;

struct Message {
  sim::Bytes size = 0;
  /// Optional real content (small-scale correctness runs only).
  std::shared_ptr<const std::vector<std::byte>> payload;
  int tag = 0;
  int source = -1;  // filled in on delivery (local rank in the comm)
  /// Caller-defined metadata rider (mpiio uses it for file offsets).
  std::uint64_t meta = 0;
  /// Shared-state rider for in-simulation handle exchange (e.g. a
  /// collective open broadcasting its shared file object). Carries no
  /// simulated bytes; `size` governs timing.
  std::shared_ptr<void> box;
  /// Per-request span context riding the message by value: the sender's
  /// checkpoint block keeps its identity across the torus so the receiver
  /// (rbIO writer, mpiio aggregator) can link it into the aggregate write
  /// it lands in. Null (the default) when tracing is off.
  obs::OpTraceContext trace;

  /// Convenience: a payload-less message of `n` simulated bytes.
  static Message ofSize(sim::Bytes n) {
    Message m;
    m.size = n;
    return m;
  }
};

/// Handle for a nonblocking operation; completes at delivery.
class Request {
 public:
  Request() = default;
  bool valid() const { return static_cast<bool>(gate_); }
  bool done() const { return gate_ && gate_->fired(); }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<sim::Gate> gate) : gate_(std::move(gate)) {}
  std::shared_ptr<sim::Gate> gate_;
};

class Comm;

namespace detail {
struct Group;  // shared communicator state, defined in comm.cpp

/// One rank inside one collective call. Comm's collectives return these
/// awaiters rather than Tasks: the awaiter is a temporary of the caller's
/// `co_await`, so it lives in the caller's coroutine frame until the call
/// completes and a collective never allocates a frame of its own. Every
/// rank suspends once and resumes after the collective's analytic cost —
/// the last arrival finalises the round and queues its own resume, the
/// group barrier's two-stage release requeues everyone else
/// (sim::Barrier) — so the event stream is that of a Task body doing
/// arrive, then `co_await delay(cost)`.
class CollectiveCall {
 public:
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);

 protected:
  friend struct Group;
  enum class Kind : std::uint8_t {
    kBarrier,
    kBcast,
    kSum,
    kMax,
    kGather,
    kGatherShared,
    kSplit,
  };
  CollectiveCall(Group& g, int rank, Kind kind)
      : g_(&g), rank_(rank), kind_(kind) {}
  /// Emit this rank's kMpi wait span, arrival to resume.
  void emitSpan() const;

  Group* g_;
  int rank_;
  Kind kind_;
  sim::SimTime t0_ = 0.0;
};

}  // namespace detail

/// Awaiter of Comm::barrier().
class [[nodiscard]] BarrierCall : public detail::CollectiveCall {
 public:
  void await_resume() const { emitSpan(); }

 private:
  friend class Comm;
  BarrierCall(detail::Group& g, int rank)
      : CollectiveCall(g, rank, Kind::kBarrier) {}
};

/// Awaiter of Comm::bcast(): yields the root's message.
class [[nodiscard]] BcastCall : public detail::CollectiveCall {
 public:
  void await_suspend(std::coroutine_handle<> h);
  Message await_resume() const;

 private:
  friend class Comm;
  BcastCall(detail::Group& g, int rank, int root, const Message& msg)
      : CollectiveCall(g, rank, Kind::kBcast), root_(root), msg_(&msg) {}
  int root_;
  // The caller's message: it outlives the co_await expression that
  // created this awaiter, and only the root reads it, on arrival.
  const Message* msg_;
};

/// Awaiter of Comm::allReduceSum() / allReduceMax().
class [[nodiscard]] ReduceCall : public detail::CollectiveCall {
 public:
  void await_suspend(std::coroutine_handle<> h);
  double await_resume() const;

 private:
  friend class Comm;
  ReduceCall(detail::Group& g, int rank, bool max, double value)
      : CollectiveCall(g, rank, max ? Kind::kMax : Kind::kSum),
        value_(value) {}
  double value_;
};

/// Awaiter of Comm::allGatherU64() / allGatherU64Shared(): `Result` is the
/// gathered vector, or the shared snapshot of it.
template <typename Result>
class [[nodiscard]] GatherCall : public detail::CollectiveCall {
 public:
  void await_suspend(std::coroutine_handle<> h);
  Result await_resume() const;

 private:
  friend class Comm;
  GatherCall(detail::Group& g, int rank, std::uint64_t value)
      : CollectiveCall(g, rank,
                       std::is_same_v<Result, std::vector<std::uint64_t>>
                           ? Kind::kGather
                           : Kind::kGatherShared),
        value_(value) {}
  std::uint64_t value_;
};

/// Awaiter of Comm::split(): yields this rank's sub-communicator.
class [[nodiscard]] SplitCall : public detail::CollectiveCall {
 public:
  void await_suspend(std::coroutine_handle<> h);
  Comm await_resume() const;

 private:
  friend class Comm;
  SplitCall(detail::Group& g, int rank, int color, int key)
      : CollectiveCall(g, rank, Kind::kSplit), color_(color), key_(key) {}
  int color_;
  int key_;
};

/// A rank's view of a communicator (cheap to copy).
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const;
  int globalRank(int localRank) const;
  const machine::Machine& machine() const;
  sim::Scheduler& scheduler() const;

  /// Blocking send: completes when the message has been delivered.
  sim::Task<> send(int dst, int tag, Message msg);

  /// Nonblocking send: costs only the software call overhead.
  sim::Task<Request> isend(int dst, int tag, Message msg);

  /// Blocking receive; src may be kAnySource.
  sim::Task<Message> recv(int src, int tag);

  sim::Task<> wait(Request req);
  sim::Task<> waitAll(const std::vector<Request>& reqs);

  // Collectives: every rank of the communicator awaits the same sequence
  // of calls. Each returns an awaiter (see detail::CollectiveCall) that
  // must be co_awaited in the expression that created it.
  BarrierCall barrier() { return BarrierCall(*group_, rank_); }
  /// Root's message is returned on every rank.
  BcastCall bcast(int root, const Message& msg) {
    return BcastCall(*group_, rank_, root, msg);
  }
  ReduceCall allReduceSum(double value) {
    return ReduceCall(*group_, rank_, false, value);
  }
  ReduceCall allReduceMax(double value) {
    return ReduceCall(*group_, rank_, true, value);
  }
  GatherCall<std::vector<std::uint64_t>> allGatherU64(std::uint64_t value) {
    return {*group_, rank_, value};
  }

  /// Like allGatherU64, but every rank receives the same shared snapshot —
  /// O(size) total memory instead of O(size^2). Essential at 64K ranks.
  GatherCall<std::shared_ptr<const std::vector<std::uint64_t>>>
  allGatherU64Shared(std::uint64_t value) {
    return {*group_, rank_, value};
  }

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, old rank) within each color.
  SplitCall split(int color, int key) {
    return SplitCall(*group_, rank_, color, key);
  }

 private:
  friend class Runtime;
  friend class SplitCall;
  Comm(std::shared_ptr<detail::Group> group, int rank)
      : group_(std::move(group)), rank_(rank) {}

  std::shared_ptr<detail::Group> group_;
  int rank_ = -1;
};

/// Owns the simulated job: one coroutine per rank running `program`.
class Runtime {
 public:
  Runtime(sim::Scheduler& sched, const machine::Machine& mach,
          net::TorusNetwork& torus, net::CollectiveNetwork& coll,
          std::uint64_t seed, obs::Observability* obs = nullptr);
  ~Runtime();

  /// Spawn `program(comm)` on every rank of the world communicator. Call
  /// Scheduler::run() afterwards to execute the job. The callable (and any
  /// captures) is kept alive by the Runtime, which must outlive the run —
  /// rank coroutine frames refer into it.
  void spawnAll(std::function<sim::Task<>(Comm)> program);

  /// World view for rank-independent helpers (e.g. tests driving one rank).
  Comm world(int rank) const;

  int numRanks() const;

 private:
  std::shared_ptr<detail::Group> world_;
  std::vector<std::shared_ptr<std::function<sim::Task<>(Comm)>>> programs_;
};

}  // namespace bgckpt::mpi
