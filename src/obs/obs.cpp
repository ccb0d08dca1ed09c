#include "obs/obs.hpp"

#include <cstdio>
#include <fstream>

#include "obs/attr.hpp"
#include "obs/critpath.hpp"
#include "obs/optrace.hpp"
#include "obs/telemetry.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::obs {

const char* artifactName(Artifact kind) {
  switch (kind) {
    case Artifact::kMetrics: return "metrics";
    case Artifact::kAttr: return "attr";
    case Artifact::kCritPath: return "critpath";
    case Artifact::kTelemetry: return "telemetry";
    case Artifact::kOpTrace: return "optrace";
  }
  return "?";
}

bool writeArtifactFile(const char* name, const std::string& path,
                       const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (out) return true;
  std::fprintf(stderr, "error: %s: cannot write %s\n", name, path.c_str());
  return false;
}

SchedulerProbe::SchedulerProbe(Observability& obs)
    : obs_(obs),
      events_(obs.metrics().counter("sched.events")),
      roots_(obs.metrics().counter("sched.roots")),
      queueDepthMax_(obs.metrics().gauge("sched.queue_depth.max")) {}

void SchedulerProbe::onDispatch(sim::SimTime now, std::size_t queueDepth) {
  events_.add();
  queueDepthMax_.setMax(static_cast<double>(queueDepth));
  if (telemetry_ != nullptr) telemetry_->tick(now, queueDepth);
}

void SchedulerProbe::onRootSpawned(std::uint64_t rootId, sim::SimTime now) {
  roots_.add();
  obs_.begin(Layer::kScheduler, static_cast<int>(rootId), "root", now);
}

void SchedulerProbe::onRootDone(std::uint64_t rootId, sim::SimTime now) {
  obs_.end(Layer::kScheduler, static_cast<int>(rootId), "root", now);
}

void SchedulerProbe::onEventScheduled(std::uint64_t seq,
                                      std::uint64_t parentSeq,
                                      sim::SimTime when, sim::WakeKind kind,
                                      const char* label) {
  if (critPath_ != nullptr)
    critPath_->onEventScheduled(seq, parentSeq, when, kind, label);
}

Observability::Observability() = default;

Observability::~Observability() {
  const sim::SimTime horizon = observedSched_ ? observedSched_->now() : 0.0;
  releaseScheduler();
  // Aggregating sinks and registered artifacts get their finalize even
  // when nobody called it; finalize() is idempotent, so a stack already
  // finalized by hand skips the work.
  finalize(horizon);
}

void Observability::addSink(std::shared_ptr<TraceSink> sink) {
  if (!sink) return;
  mask_ |= sink->layerMask();
  sinks_.push_back(std::move(sink));
}

void Observability::emit(const TraceEvent& ev) {
  const unsigned bit = layerBit(ev.layer);
  for (const auto& sink : sinks_)
    if (sink->layerMask() & bit) sink->event(ev);
}

void Observability::begin(Layer layer, int tid, const char* name,
                          sim::SimTime ts) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'B';
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  emit(ev);
}

void Observability::end(Layer layer, int tid, const char* name,
                        sim::SimTime ts) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'E';
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  emit(ev);
}

void Observability::complete(Layer layer, int tid, const char* name,
                             sim::SimTime start, sim::SimTime end) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'X';
  ev.tid = tid;
  ev.name = name;
  ev.ts = start;
  ev.dur = end - start;
  emit(ev);
}

void Observability::completeBytes(Layer layer, int tid, const char* name,
                                  sim::SimTime start, sim::SimTime end,
                                  sim::Bytes bytes) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'X';
  ev.tid = tid;
  ev.name = name;
  ev.ts = start;
  ev.dur = end - start;
  ev.hasBytes = true;
  ev.bytes = bytes;
  emit(ev);
}

void Observability::message(int src, int dst, sim::Bytes bytes,
                            sim::SimTime sendTime, sim::SimTime deliverTime) {
  // The pair matrix is only ever read by the metrics export, and a
  // hash-map update per message is measurable on the shared-file path.
  if (recordPairs_)
    metrics_.recordPair(src, dst, bytes, deliverTime - sendTime);
  if (!tracing(Layer::kMpi)) return;
  TraceEvent ev;
  ev.layer = Layer::kMpi;
  ev.phase = 'X';
  ev.tid = src;
  ev.name = "message";
  ev.ts = sendTime;
  ev.dur = deliverTime - sendTime;
  ev.hasBytes = true;
  ev.bytes = bytes;
  ev.src = src;
  ev.dst = dst;
  emit(ev);
}

void Observability::counterSample(Layer layer, const char* name,
                                  sim::SimTime ts, double value) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'C';
  ev.tid = 0;
  ev.name = name;
  ev.ts = ts;
  ev.hasValue = true;
  ev.value = value;
  emit(ev);
}

void Observability::observeScheduler(sim::Scheduler& sched) {
  if (schedProbe_) return;
  schedProbe_ = std::make_unique<SchedulerProbe>(*this);
  observedSched_ = &sched;
  sched.setHooks(schedProbe_.get());
}

void Observability::releaseScheduler() {
  if (observedSched_) {
    observedSched_->setHooks(nullptr);
    observedSched_ = nullptr;
  }
  if (schedProbe_) {
    schedProbe_->setCritPath(nullptr);
    schedProbe_->setTelemetry(nullptr);
  }
  schedProbe_.reset();
}

Telemetry& Observability::telemetry() {
  if (!telemetry_) telemetry_ = std::make_unique<Telemetry>();
  return *telemetry_;
}

AttributionSink& Observability::attachAttribution() {
  if (!attr_) {
    attr_ = std::make_shared<AttributionSink>();
    addSink(attr_);
  }
  return *attr_;
}

TelemetrySink& Observability::attachTelemetry(sim::Scheduler& sched,
                                              double bucketDt) {
  if (!telemetrySink_) {
    Telemetry& reg = telemetry();
    reg.enable(sched, bucketDt);
    observeScheduler(sched);
    schedProbe_->setTelemetry(&reg);
    telemetrySink_ = std::make_shared<TelemetrySink>(reg);
    addSink(telemetrySink_);
  }
  return *telemetrySink_;
}

OpTracer& Observability::attachOpTrace(std::uint32_t sampleEvery) {
  if (!opTracer_)
    opTracer_ = std::make_unique<OpTracer>(
        sampleEvery > 0 ? sampleEvery : OpTracer::kDefaultSampleEvery);
  return *opTracer_;
}

CritPathRecorder& Observability::attachCritPath(sim::Scheduler& sched) {
  if (!critPath_) {
    critPath_ = std::make_shared<CritPathRecorder>();
    observeScheduler(sched);
    schedProbe_->setCritPath(critPath_.get());
    // Refresh the scheduler's cached wantsScheduleEvents() decision.
    sched.setHooks(schedProbe_.get());
    addSink(critPath_);
  }
  return *critPath_;
}

void Observability::exportArtifact(Artifact kind, std::string path) {
  const bool attached = kind == Artifact::kMetrics ||
                        (kind == Artifact::kAttr && attr_) ||
                        (kind == Artifact::kCritPath && critPath_) ||
                        (kind == Artifact::kTelemetry && telemetrySink_) ||
                        (kind == Artifact::kOpTrace && opTracer_);
  SIM_CHECK(attached, "exportArtifact: attach the artifact's recorder first");
  exportPaths_[static_cast<std::size_t>(kind)] = std::move(path);
  recordPairs_ = !exportPaths_[static_cast<std::size_t>(Artifact::kMetrics)]
                      .empty();
}

void Observability::finalize(sim::SimTime horizon) {
  if (finalized_) {
    // Already derived, finalized and written (a manual call before the
    // destructor's, say): deriving again would divide busy-seconds by a
    // new horizon — skip, just re-flush so late events reach disk.
    for (const auto& sink : sinks_) sink->flush();
    return;
  }
  finalized_ = true;
  if (horizon > 0) {
    // Derive `<prefix>.utilization` from accumulated busy seconds: mean
    // fraction of the horizon each link/server/stream-slot was busy.
    for (const auto& [name, g] : metrics_.gauges()) {
      const auto pos = name.rfind(".busy_seconds");
      if (pos == std::string::npos ||
          pos + 13 != name.size())
        continue;
      const std::string prefix = name.substr(0, pos);
      const double links = metrics_.gauge(prefix + ".links").value();
      if (links <= 0) continue;
      metrics_.gauge(prefix + ".utilization")
          .set(g.value() / (horizon * links));
    }
    metrics_.gauge("sim.horizon_seconds").set(horizon);
  }
  for (const auto& sink : sinks_) sink->finalize(horizon);
  if (opTracer_) opTracer_->closeOut(horizon);
  // Tie the sampled view to the exact event view: whenever both sinks are
  // attached, their independently integrated busy times must agree.
  if (telemetrySink_ && attr_)
    telemetrySink_->crossCheckAttribution(attr_->report());
  for (const auto& sink : sinks_) sink->flush();
  for (int k = 0; k < kNumArtifacts; ++k) {
    const auto kind = static_cast<Artifact>(k);
    const std::string& path = exportPaths_[static_cast<std::size_t>(k)];
    if (!path.empty())
      writeArtifactFile(artifactName(kind), path, renderJson(kind));
  }
}

std::string Observability::renderJson(Artifact kind) const {
  switch (kind) {
    case Artifact::kMetrics: return metrics_.toJson();
    case Artifact::kAttr: return attr_->report().toJson();
    case Artifact::kCritPath: return critPath_->path().toJson();
    case Artifact::kTelemetry: return telemetrySink_->toJson();
    case Artifact::kOpTrace: return opTracer_->toJson();
  }
  return {};
}

}  // namespace bgckpt::obs
