// Trace event model and sinks.
//
// Every instrumented layer of the simulated stack emits TraceEvents through
// an Observability hub (obs.hpp). A sink decides what to do with them:
//
//  * NullSink        - drops everything; layerMask() == 0 means producers
//                      skip event construction entirely, so a stack with no
//                      sink attached pays only a masked branch per site.
//  * ChromeTraceSink - streams trace_event-format JSON (one "process" per
//                      simulated layer, one "thread" per rank) loadable in
//                      Perfetto / chrome://tracing, plus an optional JSONL
//                      event log consumed by tools/trace_report.
//
// Conventions: `ts`/`dur` are simulated seconds (the Chrome stream converts
// to microseconds, as the trace_event spec requires); `tid` is the rank (or
// root-task id for scheduler spans); span begin/end events ('B'/'E') must
// nest per (layer, tid); ops with a known duration at emit time use
// complete events ('X').
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>

#include "simcore/units.hpp"

namespace bgckpt::obs {

/// One Chrome-trace "process" per simulated layer of the stack.
enum class Layer : int {
  kScheduler = 0,  // discrete-event kernel: root-task spans
  kNetwork = 1,    // torus + ION forwarding
  kStorage = 2,    // file servers + DDN arrays
  kFilesystem = 3, // GPFS/PVFS client-visible operations
  kMpi = 4,        // simulated MPI messages
  kIo = 5,         // checkpoint library ops + rbIO phase spans
  kApp = 6,        // per-rank application spans (checkpoint envelope)
};
inline constexpr int kNumLayers = 7;

const char* layerName(Layer layer);

constexpr unsigned layerBit(Layer layer) {
  return 1u << static_cast<unsigned>(layer);
}
inline constexpr unsigned kAllLayers = (1u << kNumLayers) - 1;

struct TraceEvent {
  Layer layer = Layer::kApp;
  char phase = 'X';  // 'B' begin, 'E' end, 'X' complete, 'C' counter
  int tid = 0;       // rank (or root-task id on the scheduler layer)
  const char* name = "";  // must point at storage outliving the emit call
  sim::SimTime ts = 0;    // seconds of simulated time
  sim::Duration dur = 0;  // 'X' only
  // Optional args (negative / hasX=false means "absent").
  bool hasBytes = false;
  sim::Bytes bytes = 0;
  int src = -1;  // mpi message source rank
  int dst = -1;  // mpi message destination rank
  bool hasValue = false;
  double value = 0;  // 'C' counter sample
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& ev) = 0;
  virtual void flush() {}
  /// End of run: the horizon is the final simulated time. Sinks that
  /// aggregate (attribution, flight recorder) finish their computation
  /// here. Called exactly once, before the final flush(), by
  /// Observability::finalize, which then writes the registered artifacts.
  virtual void finalize(sim::SimTime /*horizon*/) {}
  /// OR of layerBit() for the layers this sink consumes. Producers skip
  /// emission entirely when no attached sink wants their layer.
  virtual unsigned layerMask() const { return kAllLayers; }
};

/// Zero-overhead sink: wants no layers, drops anything it is handed anyway.
class NullSink final : public TraceSink {
 public:
  void event(const TraceEvent&) override {}
  unsigned layerMask() const override { return 0; }
};

/// Streams Chrome trace_event JSON and (optionally) a JSONL event log.
///
/// The Chrome stream is a JSON array of trace_event objects with process /
/// thread metadata emitted lazily the first time a layer or (layer, rank)
/// appears. The JSONL stream holds one JSON object per line with timestamps
/// kept in simulated seconds — the lossless form tools/trace_report reads.
class ChromeTraceSink final : public TraceSink {
 public:
  /// Borrow streams owned by the caller (tests pass ostringstreams).
  explicit ChromeTraceSink(std::ostream& chrome, std::ostream* jsonl = nullptr);
  /// Own freshly opened file streams; throws std::runtime_error on failure.
  /// An empty jsonlPath disables the JSONL log.
  static std::unique_ptr<ChromeTraceSink> toFiles(const std::string& chromePath,
                                                  const std::string& jsonlPath);
  ~ChromeTraceSink() override;

  void event(const TraceEvent& ev) override;
  void flush() override;
  /// Terminate the Chrome JSON array. Idempotent; called by the destructor.
  void close();

  std::uint64_t eventsWritten() const { return eventsWritten_; }

 private:
  ChromeTraceSink(std::unique_ptr<std::ostream> chrome,
                  std::unique_ptr<std::ostream> jsonl);
  void writeChrome(const TraceEvent& ev);
  void writeJsonl(const TraceEvent& ev);
  void ensureMetadata(Layer layer, int tid);
  void writeSeparator();

  std::unique_ptr<std::ostream> ownedChrome_;
  std::unique_ptr<std::ostream> ownedJsonl_;
  std::ostream* chrome_ = nullptr;
  std::ostream* jsonl_ = nullptr;
  bool anyWritten_ = false;
  bool closed_ = false;
  std::uint64_t eventsWritten_ = 0;
  unsigned layersSeen_ = 0;
  std::unordered_set<std::uint64_t> threadsSeen_;  // (layer << 32) | tid
};

}  // namespace bgckpt::obs
