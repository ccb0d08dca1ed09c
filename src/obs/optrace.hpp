// Per-request causal tracing: span-context propagation from the rank that
// issues a checkpoint write down to the DDN commit.
//
// The aggregate views (metrics, attribution, telemetry) answer "how busy was
// each layer"; this subsystem answers "where did *this* request spend its
// time". An iolib strategy mints an OpTraceContext per checkpoint write
// operation (trace id, rank, block offset/size) and the context is then
// propagated *by value* — never re-minted — through every layer the request
// crosses: the rbIO handoff rides the mpi::Message, the torus records
// inject/flight/eject hops, the ION its queue and forward, the filesystem
// its metadata and token waits, and the storage fabric the fs-server queue
// and the DDN commit. Each hop appends a timestamped span; aggregation
// points (the rbIO writer, the mpiio collective aggregator) link child
// contexts into their own, recording the 64:1 fan-in lineage.
//
// Cost model: a dormant stack carries one null-pointer branch per hop site
// (contexts default to null; nothing allocates). With tracing on, hop spans
// are recorded for every in-flight request, but full waterfalls are only
// *retained* for a deterministic 1-in-N sample plus the N slowest requests
// (always-capture tail), which bounds memory. Per-hop latency percentiles
// are computed over the sampled population; exact counts and sums cover all
// requests. The tracer never schedules events and never consumes RNG, so
// simulation results are bit-identical with tracing on or off.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "simcore/stats.hpp"
#include "simcore/units.hpp"

namespace bgckpt::obs {

class OpTracer;

/// The fixed vocabulary of hops a checkpoint request can cross, in rough
/// path order. Per-request hop *totals* (sum of all spans of one hop inside
/// one request) are the unit the percentile tables aggregate, so a request's
/// end-to-end latency decomposes over its hop totals.
enum class Hop : std::uint8_t {
  kHandoffSend = 0,  // rbIO worker: nonblocking send call (perceived cost)
  kHandoffRecv,      // rbIO writer: recv + reorder window (raw handoff)
  kNetInject,        // torus: injection queue + serialisation
  kNetFlight,        // torus: per-hop link latency
  kNetEject,         // torus: ejection queue + drain
  kNetLocal,         // torus: intra-node memory copy
  kCollective,       // mpiio: offset/size exchange + closing barrier
  kFsCreate,         // filesystem: create (dir queue + metadata cost)
  kFsOpen,           // filesystem: open lookup
  kFsClose,          // filesystem: close / flush
  kTokenWait,        // filesystem: byte-range token negotiation
  kIonQueue,         // ION: wait for an uplink slot
  kIonForward,       // ION: forwarding busy time
  kServerQueue,      // fs server: FIFO queue wait
  kServerService,    // fs server: request ingest + service
  kArrayQueue,       // DDN: wait for the array port
  kDdnCommit,        // DDN: seek + media commit
  kLocalWrite,       // multilevel: node-local (ramdisk) write
  kHostWrite,        // hostio backend: real file write syscalls
  kCount
};
inline constexpr int kNumHops = static_cast<int>(Hop::kCount);

const char* hopName(Hop hop);

/// By-value span context. A default-constructed context is null (untraced):
/// every member function is then a single branch. Copying is free — the
/// context is a (tracer, request-id) pair — which is what lets it ride
/// mpi::Message payloads across ranks and coroutine frames by value.
struct OpTraceContext {
  OpTracer* tracer = nullptr;
  std::uint32_t id = 0;

  bool live() const { return tracer != nullptr; }

  /// Append one timestamped hop span to the request.
  void hop(Hop h, sim::SimTime start, sim::SimTime end,
           sim::Bytes bytes = 0) const;
  /// Record `child` as a block merged into this (aggregate) request.
  /// Fan-in lineage: the rbIO writer links the 63 worker handoffs plus its
  /// own block; the mpiio aggregator links the exchanged pieces.
  void link(const OpTraceContext& child) const;
  /// Mark the request finished at `end`. Linked children still open are
  /// completed at the same instant: a handed-off block's journey ends when
  /// the aggregate that swallowed it commits.
  void complete(sim::SimTime end) const;
};

/// Registry of in-flight and retained requests. Owned by Observability;
/// layers receive contexts, never the tracer itself.
class OpTracer {
 public:
  static constexpr const char* kSchemaVersion = "bgckpt-optrace-1";
  static constexpr std::uint32_t kDefaultSampleEvery = 64;
  static constexpr int kDefaultTailN = 8;

  explicit OpTracer(std::uint32_t sampleEvery = kDefaultSampleEvery,
                    int tailN = kDefaultTailN);

  /// Mint a new request context. Only strategy-level code (src/iolib, the
  /// hostio backend) mints; everything downstream propagates. `op` must
  /// point at storage outliving the tracer (string literals).
  OpTraceContext mint(int rank, const char* op, std::uint64_t offset,
                      sim::Bytes bytes, sim::SimTime now);

  void recordHop(std::uint32_t id, Hop h, sim::SimTime start, sim::SimTime end,
                 sim::Bytes bytes);
  void linkChild(std::uint32_t parent, std::uint32_t child);
  void completeRequest(std::uint32_t id, sim::SimTime end);

  /// Complete every still-open request at the horizon (flagged unfinished)
  /// and freeze the aggregates. Idempotent.
  void closeOut(sim::SimTime horizon);

  /// Versioned JSON export (schema kSchemaVersion); call after closeOut.
  std::string toJson() const;

  // -- accessors for tests and in-process consumers -----------------------
  struct HopStat {
    std::uint64_t requests = 0;  // requests that crossed this hop (all)
    double totalSeconds = 0;     // sum of hop totals over all requests
    double p50 = 0, p95 = 0, p99 = 0, max = 0;  // sampled population
  };
  std::uint64_t minted() const { return minted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t sampled() const { return sampledCount_; }
  std::uint32_t sampleEvery() const { return sampleEvery_; }
  HopStat hopStat(Hop h) const;            // across all ops
  HopStat hopStat(const char* op, Hop h) const;
  double e2eQuantile(double q) const;      // sampled population
  const sim::Sample& fanIn() const { return fanIn_; }
  std::uint64_t lineageEdges() const { return edges_; }

 private:
  struct Span {
    double t0 = 0;
    double dur = 0;
    std::uint64_t bytes = 0;
    Hop hop = Hop::kCount;
  };
  struct Request {
    std::uint32_t id = 0;
    int rank = 0;
    const char* op = "";
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    double t0 = 0;
    double t1 = -1;
    std::uint32_t parent = kNoParent;
    std::uint32_t fanIn = 0;
    bool sampled = false;
    bool unfinished = false;
    bool childrenTruncated = false;
    std::vector<Span> spans;
    std::vector<std::uint32_t> children;
  };
  struct HopAgg {
    std::uint64_t requests = 0;
    double totalSeconds = 0;
    sim::Sample sampledTotals;
  };
  struct OpAgg {
    std::uint64_t requests = 0;
    sim::Accumulator e2eAll;
    sim::Sample e2eSampled;
    std::array<HopAgg, kNumHops> hops;
  };

  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  // Children ids stored per aggregate are capped (the fan-in *count* stays
  // exact); retained sampled waterfalls are capped so a pathological rate
  // cannot balloon the export.
  static constexpr std::size_t kMaxChildrenStored = 1024;
  static constexpr std::size_t kMaxSampledKept = 4096;

  void aggregate(Request&& req);
  static void writeRequest(std::string& out, const Request& req,
                           const char* indent);
  static void writeHopTable(std::string& out, const OpAgg& agg,
                            const char* indent);

  std::uint32_t sampleEvery_;
  int tailN_;
  std::uint64_t minted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t sampledCount_ = 0;
  std::uint64_t unfinished_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t sampledDropped_ = 0;
  bool closed_ = false;
  double horizon_ = 0;
  std::unordered_map<std::uint32_t, Request> open_;
  OpAgg global_;
  std::map<std::string, OpAgg> ops_;  // ordered: deterministic export
  sim::Sample fanIn_;                 // fan-in of every aggregate request
  std::vector<Request> sampled_;      // retained waterfalls, 1-in-N
  std::vector<Request> tail_;         // min-heap on e2e, the N slowest
};

inline void OpTraceContext::hop(Hop h, sim::SimTime start, sim::SimTime end,
                                sim::Bytes bytes) const {
  if (tracer != nullptr) tracer->recordHop(id, h, start, end, bytes);
}

inline void OpTraceContext::link(const OpTraceContext& child) const {
  if (tracer != nullptr && child.tracer == tracer)
    tracer->linkChild(id, child.id);
}

inline void OpTraceContext::complete(sim::SimTime end) const {
  if (tracer != nullptr) tracer->completeRequest(id, end);
}

/// The one sanctioned way to start a trace. srclint enforces that this is
/// only called from strategy-level code (src/obs, src/iolib, or an
/// explicitly allowed backend): everything below the strategy propagates an
/// existing context instead of minting a fresh one mid-path.
inline OpTraceContext mintOpTrace(OpTracer* tracer, int rank, const char* op,
                                  std::uint64_t offset, sim::Bytes bytes,
                                  sim::SimTime now) {
  if (tracer == nullptr) return {};
  return tracer->mint(rank, op, offset, bytes, now);
}

}  // namespace bgckpt::obs
