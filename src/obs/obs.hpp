// Observability hub: one per simulated stack.
//
// Owns the MetricsRegistry and a set of TraceSinks, and caches the OR of
// the sinks' layer masks so producers can guard emission with a single
// bit test: `if (obs && obs->tracing(Layer::kFilesystem)) ...`. Every
// instrumented layer (scheduler, torus/ION, storage fabric, filesystem,
// MPI runtime, checkpoint strategies) takes an optional `Observability*`
// and is exactly as fast as before when handed nullptr.
//
// iolib::SimStack attaches no sink of its own: with none attached every
// emission site is one failed bit test. Callers attach what they read —
// prof::IoProfileSink (profiling/profile.hpp) for a per-op profile, a
// ChromeTraceSink when the user asks for a trace file.
//
// The hub is also the one export path for the JSON artifacts (metrics,
// attr, critpath, telemetry, optrace): exportArtifact registers a kind and
// a path, and the first finalize writes each one through writeArtifactFile.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcore/scheduler.hpp"

namespace bgckpt::obs {

class Observability;
class AttributionSink;
class CritPathRecorder;
class Telemetry;
class TelemetrySink;
class OpTracer;

/// The JSON artifacts the hub writes at finalize, one file per registered
/// kind, each rendered by the toJson() of the recorder that owns it.
enum class Artifact : std::uint8_t {
  kMetrics = 0,  // MetricsRegistry (always present)
  kAttr,         // AttributionSink report (attachAttribution)
  kCritPath,     // CritPathRecorder path (attachCritPath)
  kTelemetry,    // TelemetrySink series (attachTelemetry)
  kOpTrace,      // OpTracer report (attachOpTrace)
};
inline constexpr int kNumArtifacts = 5;

/// The artifact's name in manifests and error lines: "metrics", "attr",
/// "critpath", "telemetry", "optrace".
const char* artifactName(Artifact kind);

/// The one routine that writes an obs artifact file: `text` to `path`. On
/// failure prints "error: <name>: cannot write PATH" on stderr and returns
/// false.
bool writeArtifactFile(const char* name, const std::string& path,
                       const std::string& text);

/// sim::SchedulerHooks implementation: counts dispatched events, tracks the
/// event-queue high-water mark, and emits one span per root task on the
/// scheduler layer (tid = root id). When a CritPathRecorder is attached it
/// also forwards every causal scheduling edge (the scheduler caches
/// wantsScheduleEvents() at setHooks time, so the forwarding branch costs
/// nothing until Observability::attachCritPath re-installs the hooks).
class SchedulerProbe final : public sim::SchedulerHooks {
 public:
  explicit SchedulerProbe(Observability& obs);
  void onDispatch(sim::SimTime now, std::size_t queueDepth) override;
  void onRootSpawned(std::uint64_t rootId, sim::SimTime now) override;
  void onRootDone(std::uint64_t rootId, sim::SimTime now) override;
  bool wantsScheduleEvents() const override { return critPath_ != nullptr; }
  void onEventScheduled(std::uint64_t seq, std::uint64_t parentSeq,
                        sim::SimTime when, sim::WakeKind kind,
                        const char* label) override;

  void setCritPath(CritPathRecorder* critPath) { critPath_ = critPath; }
  /// Hand the probe a live Telemetry registry: every dispatch then drives
  /// the sampling cadence (queue-depth gauge + bucket close-out). Nullptr
  /// (the default) keeps dispatch at one extra branch.
  void setTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  Observability& obs_;
  Counter& events_;
  Counter& roots_;
  Gauge& queueDepthMax_;
  CritPathRecorder* critPath_ = nullptr;
  Telemetry* telemetry_ = nullptr;
};

class Observability {
 public:
  Observability();  // out of line: members of forward-declared types
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability();

  /// Attach a sink; its layerMask() joins the cached tracing mask.
  void addSink(std::shared_ptr<TraceSink> sink);

  /// True when some attached sink wants events from `layer`.
  bool tracing(Layer layer) const { return (mask_ & layerBit(layer)) != 0; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Fan an event out to every sink whose mask covers its layer.
  void emit(const TraceEvent& ev);

  // ------- typed emission helpers (no-ops unless a sink wants the layer) --
  void begin(Layer layer, int tid, const char* name, sim::SimTime ts);
  void end(Layer layer, int tid, const char* name, sim::SimTime ts);
  void complete(Layer layer, int tid, const char* name, sim::SimTime start,
                sim::SimTime end);
  void completeBytes(Layer layer, int tid, const char* name,
                     sim::SimTime start, sim::SimTime end, sim::Bytes bytes);
  /// MPI message delivery: complete event on the sender's row plus the
  /// per-pair metrics entry (recorded only when the metrics artifact is
  /// registered, since nothing else reads the pair matrix).
  void message(int src, int dst, sim::Bytes bytes, sim::SimTime sendTime,
               sim::SimTime deliverTime);
  void counterSample(Layer layer, const char* name, sim::SimTime ts,
                     double value);

  /// Install a SchedulerProbe on `sched` (kept alive by this object).
  /// Safe to call more than once; only the first call installs.
  void observeScheduler(sim::Scheduler& sched);
  /// Remove the probe before the scheduler goes away (SimStack's teardown
  /// order already guarantees this; tests use it directly).
  void releaseScheduler();

  /// Attach the hub's blocked-time attribution sink (obs/attr.hpp), the
  /// one the `attr` artifact renders. Repeated calls return the same sink.
  AttributionSink& attachAttribution();

  /// Start recording the causal event graph of `sched` (installing the
  /// scheduler probe if necessary) and register the recorder as a sink so
  /// it finalizes with everything else. Returns the recorder for
  /// in-process queries; repeated calls return the existing one.
  CritPathRecorder& attachCritPath(sim::Scheduler& sched);

  /// The sampled-telemetry probe registry (obs/telemetry.hpp). Layers
  /// resolve Probe handles here at construction; probes stay dormant (one
  /// branch per update) until attachTelemetry flips them live.
  Telemetry& telemetry();

  /// Start sampled telemetry on `sched`: enables the registry at bucket
  /// width `bucketDt` (<=0 = default), wires the sampling cadence into the
  /// scheduler probe, and registers a TelemetrySink so series close at
  /// finalize. Repeated calls return the existing sink. Finalize
  /// cross-checks the sampled busy time against attachAttribution's sink
  /// when both are attached.
  TelemetrySink& attachTelemetry(sim::Scheduler& sched, double bucketDt = 0.0);

  /// Start per-request causal tracing (obs/optrace.hpp) with 1-in-
  /// `sampleEvery` waterfall retention (0 = the default); finalize closes
  /// the tracer out. Repeated calls return the existing tracer.
  OpTracer& attachOpTrace(std::uint32_t sampleEvery = 0);
  /// The tracer for strategy-level minting; nullptr until attachOpTrace.
  /// Layers never call this — they receive contexts by value.
  OpTracer* opTracer() const { return opTracer_.get(); }

  /// Write `kind`'s JSON to `path` at finalize. Its recorder must already
  /// be attached (metrics always is). A file that cannot be written prints
  /// "error: <kind>: cannot write PATH" on stderr.
  void exportArtifact(Artifact kind, std::string path);

  /// Convert accumulated busy-seconds gauges into utilization gauges over
  /// [0, horizon], finalize + flush all sinks, close out the op tracer and
  /// write every registered artifact. Idempotent: the first call wins
  /// (later calls — e.g. the destructor's after a manual finalize — only
  /// re-flush, so gauges are never derived twice and no file is rewritten).
  void finalize(sim::SimTime horizon);

 private:
  /// `kind`'s JSON, rendered by the recorder that owns it.
  std::string renderJson(Artifact kind) const;

  MetricsRegistry metrics_;
  std::vector<std::shared_ptr<TraceSink>> sinks_;
  unsigned mask_ = 0;
  std::unique_ptr<SchedulerProbe> schedProbe_;
  sim::Scheduler* observedSched_ = nullptr;
  std::shared_ptr<AttributionSink> attr_;
  std::shared_ptr<CritPathRecorder> critPath_;
  std::unique_ptr<Telemetry> telemetry_;
  std::shared_ptr<TelemetrySink> telemetrySink_;
  std::unique_ptr<OpTracer> opTracer_;
  bool finalized_ = false;
  // Indexed by Artifact; empty = not exported.
  std::array<std::string, kNumArtifacts> exportPaths_;
  // Cached exportPaths_[kMetrics] non-empty: message()'s one branch.
  bool recordPairs_ = false;
};

/// RAII span for one I/O operation on the kIo layer: emits a complete
/// event at stop() (with bytes) or at destruction (without), so an op
/// abandoned by an exception or early co_return is still recorded instead
/// of silently dropped. Null `obs` disables it.
class IoOpSpan {
 public:
  IoOpSpan(Observability* obs, const sim::Scheduler& sched, int rank,
           const char* name)
      : obs_(obs), sched_(sched), rank_(rank), name_(name),
        start_(sched.now()) {}
  IoOpSpan(const IoOpSpan&) = delete;
  IoOpSpan& operator=(const IoOpSpan&) = delete;
  ~IoOpSpan() {
    if (!done_ && obs_)
      obs_->complete(Layer::kIo, rank_, name_, start_, sched_.now());
  }

  void stop(sim::Bytes bytes = 0) {
    done_ = true;
    if (obs_)
      obs_->completeBytes(Layer::kIo, rank_, name_, start_, sched_.now(),
                          bytes);
  }

 private:
  Observability* obs_;
  const sim::Scheduler& sched_;
  int rank_;
  const char* name_;
  sim::SimTime start_;
  bool done_ = false;
};

}  // namespace bgckpt::obs
