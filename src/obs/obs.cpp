#include "obs/obs.hpp"

#include "obs/attr.hpp"
#include "obs/critpath.hpp"
#include "obs/optrace.hpp"
#include "obs/telemetry.hpp"

namespace bgckpt::obs {

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
  // Aggregating sinks (attribution, critpath) must always get their
  // finalize, even without a metrics export request; finalize() is
  // idempotent, so a stack already finalized by hand skips the work.
  finalize(horizon);
  if (!metricsJsonPath_.empty()) metrics_.writeJson(metricsJsonPath_);
  if (!metricsCsvPath_.empty()) metrics_.writeCsv(metricsCsvPath_);
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
  if (!metricsJsonPath_.empty() || !metricsCsvPath_.empty())
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

TelemetrySink& Observability::attachTelemetry(sim::Scheduler& sched,
                                              double bucketDt,
                                              std::string jsonPath,
                                              std::string csvPath) {
  if (!telemetrySink_) {
    Telemetry& reg = telemetry();
    reg.enable(sched, bucketDt);
    observeScheduler(sched);
    schedProbe_->setTelemetry(&reg);
    telemetrySink_ = std::make_shared<TelemetrySink>(reg);
    addSink(telemetrySink_);
  }
  if (!jsonPath.empty() || !csvPath.empty())
    telemetrySink_->exportTo(std::move(jsonPath), std::move(csvPath));
  return *telemetrySink_;
}

OpTraceSink& Observability::attachOpTrace(std::uint32_t sampleEvery,
                                          int tailN, std::string jsonPath) {
  if (!opTracer_) {
    opTracer_ = std::make_unique<OpTracer>(
        sampleEvery > 0 ? sampleEvery : OpTracer::kDefaultSampleEvery,
        tailN >= 0 ? tailN : OpTracer::kDefaultTailN);
    opTraceSink_ = std::make_shared<OpTraceSink>(*opTracer_);
    addSink(opTraceSink_);
  }
  if (!jsonPath.empty()) opTraceSink_->exportTo(std::move(jsonPath));
  return *opTraceSink_;
}

CritPathRecorder& Observability::attachCritPath(sim::Scheduler& sched,
                                                std::string jsonPath) {
  if (!critPath_) {
    critPath_ = std::make_shared<CritPathRecorder>();
    observeScheduler(sched);
    schedProbe_->setCritPath(critPath_.get());
    // Refresh the scheduler's cached wantsScheduleEvents() decision.
    sched.setHooks(schedProbe_.get());
    addSink(critPath_);
  }
  if (!jsonPath.empty()) critPath_->exportTo(std::move(jsonPath));
  return *critPath_;
}

void Observability::finalize(sim::SimTime horizon) {
  if (finalized_) {
    // Already derived and finalized (manual call before the exportOnDestroy
    // teardown, say): deriving again would divide busy-seconds by a new
    // horizon and double-count nothing but still overwrite — skip, just
    // re-flush so late events reach disk.
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
  // Tie the sampled view to the exact event view: whenever both sinks are
  // attached, their independently integrated busy times must agree.
  if (telemetrySink_ && telemetrySink_->finalized()) {
    for (const auto& sink : sinks_) {
      const auto* attr = dynamic_cast<const AttributionSink*>(sink.get());
      if (attr != nullptr && attr->finalized())
        telemetrySink_->crossCheckAttribution(attr->report());
    }
  }
  for (const auto& sink : sinks_) sink->flush();
}

void Observability::exportOnDestroy(std::string metricsJsonPath,
                                    std::string metricsCsvPath) {
  metricsJsonPath_ = std::move(metricsJsonPath);
  metricsCsvPath_ = std::move(metricsCsvPath);
}

}  // namespace bgckpt::obs
