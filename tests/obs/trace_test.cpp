#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/task.hpp"

#include <unistd.h>

namespace bgckpt::obs {
namespace {

TraceEvent span(Layer layer, char phase, int tid, const char* name,
                double ts) {
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = phase;
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  return ev;
}

TEST(NullSink, WantsNoLayers) {
  NullSink sink;
  EXPECT_EQ(sink.layerMask(), 0u);
}

TEST(Observability, MaskGatesEmission) {
  // Declared before obs: ChromeTraceSink writes the closing "]" to the
  // stream from its destructor, so the stream must outlive the sink.
  std::ostringstream chrome;
  Observability obs;
  EXPECT_FALSE(obs.tracing(Layer::kIo));  // no sinks at all

  obs.addSink(std::make_shared<NullSink>());
  EXPECT_FALSE(obs.tracing(Layer::kIo));  // NullSink adds nothing

  obs.addSink(std::make_shared<ChromeTraceSink>(chrome));
  for (int l = 0; l < kNumLayers; ++l)
    EXPECT_TRUE(obs.tracing(static_cast<Layer>(l)));
}

TEST(ChromeTraceSink, OutputIsValidJsonWithBalancedSpans) {
  std::ostringstream chrome;
  std::ostringstream jsonl;
  {
    ChromeTraceSink sink(chrome, &jsonl);
    sink.event(span(Layer::kIo, 'B', 3, "commit", 1.0));
    TraceEvent write = span(Layer::kIo, 'X', 3, "write", 1.25);
    write.dur = 0.5;
    write.hasBytes = true;
    write.bytes = 1 << 20;
    sink.event(write);
    sink.event(span(Layer::kIo, 'E', 3, "commit", 2.0));
    EXPECT_EQ(sink.eventsWritten(), 3u);
  }  // destructor closes the JSON array

  const auto doc = json::parse(chrome.str());
  ASSERT_TRUE(doc.has_value()) << chrome.str();
  ASSERT_TRUE(doc->isArray());

  int begins = 0, ends = 0, completes = 0, metadata = 0;
  for (const auto& ev : *doc->array) {
    const std::string ph = ev.stringOr("ph", "?");
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "X") ++completes;
    if (ph == "M") ++metadata;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(completes, 1);
  EXPECT_GE(metadata, 2);  // process_name + thread_name at minimum

  // The X event carries microseconds and its byte count in args.
  for (const auto& ev : *doc->array) {
    if (ev.stringOr("ph", "") != "X") continue;
    EXPECT_DOUBLE_EQ(ev.numberOr("ts", 0), 1.25e6);
    EXPECT_DOUBLE_EQ(ev.numberOr("dur", 0), 0.5e6);
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->numberOr("bytes", 0), double(1 << 20));
  }
}

TEST(ChromeTraceSink, JsonlKeepsSecondsOnePerLine) {
  std::ostringstream chrome;
  std::ostringstream jsonl;
  {
    ChromeTraceSink sink(chrome, &jsonl);
    TraceEvent write = span(Layer::kFilesystem, 'X', 7, "write", 0.125);
    write.dur = 0.25;
    write.hasBytes = true;
    write.bytes = 42;
    sink.event(write);
  }
  std::istringstream lines(jsonl.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    const auto ev = json::parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    EXPECT_EQ(ev->stringOr("cat", ""), "filesystem");
    EXPECT_DOUBLE_EQ(ev->numberOr("ts", 0), 0.125);  // seconds, not us
    EXPECT_DOUBLE_EQ(ev->numberOr("bytes", 0), 42.0);
    ++parsed;
  }
  EXPECT_EQ(parsed, 1);
}

TEST(ChromeTraceSink, CloseIsIdempotent) {
  std::ostringstream chrome;
  ChromeTraceSink sink(chrome);
  sink.event(span(Layer::kApp, 'X', 0, "checkpoint", 0));
  sink.close();
  sink.close();
  sink.event(span(Layer::kApp, 'X', 0, "late", 9));  // dropped after close
  EXPECT_EQ(sink.eventsWritten(), 1u);
  ASSERT_TRUE(json::parse(chrome.str()).has_value());
}

TEST(MetricsRegistry, JsonExportRoundTrip) {
  MetricsRegistry reg;
  reg.counter("fs.creates").add(3);
  reg.gauge("net.util").set(0.5);
  auto& h = reg.histogram("fs.write.latency", 0.0, 1.0, 10);
  h.add(0.05);
  h.add(0.15);
  reg.recordPair(1, 2, 4096, 0.001);
  reg.recordPair(1, 2, 4096, 0.002);

  const auto doc = json::parse(reg.toJson());
  ASSERT_TRUE(doc.has_value()) << reg.toJson();
  EXPECT_DOUBLE_EQ(doc->find("counters")->numberOr("fs.creates", 0), 3.0);
  EXPECT_DOUBLE_EQ(doc->find("gauges")->numberOr("net.util", 0), 0.5);
  const json::Value* hist =
      doc->find("histograms")->find("fs.write.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->numberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(doc->numberOr("mpiPairsTotal", 0), 1.0);
  const json::Value* top = doc->find("mpiTopPairs");
  ASSERT_TRUE(top && top->isArray());
  ASSERT_EQ(top->array->size(), 1u);
  EXPECT_DOUBLE_EQ((*top->array)[0].numberOr("bytes", 0), 8192.0);
  EXPECT_DOUBLE_EQ((*top->array)[0].numberOr("count", 0), 2.0);
}

TEST(Observability, FinalizeDerivesUtilization) {
  Observability obs;
  obs.metrics().gauge("net.ion.busy_seconds").add(5.0);
  obs.metrics().gauge("net.ion.links").set(2.0);
  obs.finalize(10.0);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("sim.horizon_seconds").value(), 10.0);
}

TEST(Observability, FinalizeIsIdempotent) {
  struct CountingSink final : TraceSink {
    int finalizes = 0;
    void event(const TraceEvent&) override {}
    void finalize(sim::SimTime) override { ++finalizes; }
  };
  Observability obs;
  auto sink = std::make_shared<CountingSink>();
  obs.addSink(sink);
  obs.metrics().gauge("net.ion.busy_seconds").add(5.0);
  obs.metrics().gauge("net.ion.links").set(2.0);
  obs.finalize(10.0);
  EXPECT_EQ(sink->finalizes, 1);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  // A second call (a larger horizon, say the destructor's re-run) must not
  // re-derive: utilization and the horizon gauge keep their first values.
  obs.finalize(20.0);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("sim.horizon_seconds").value(), 10.0);
  EXPECT_EQ(sink->finalizes, 1);
}

TEST(Observability, MessagePairsRecordedOnlyForMetricsExport) {
  Observability quiet;
  quiet.message(1, 2, 4096, 0.0, 1e-3);
  EXPECT_TRUE(quiet.metrics().pairs().empty());

  const std::filesystem::path json =
      std::filesystem::temp_directory_path() /
      ("obs_pairs_" + std::to_string(::getpid()) + ".json");
  {
    Observability exported;
    exported.exportArtifact(Artifact::kMetrics, json.string());
    exported.message(1, 2, 4096, 0.0, 1e-3);
    exported.message(1, 2, 4096, 0.0, 2e-3);
    ASSERT_EQ(exported.metrics().pairs().size(), 1u);
  }
  std::ifstream in(json);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(json);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_DOUBLE_EQ(doc->numberOr("mpiPairsTotal", 0), 1.0);
}

TEST(Observability, UnwritableArtifactsPrintOneErrorPerKind) {
  // Every registered artifact goes through the hub's one writer, so every
  // kind reports a failed write the same way, once, at the first finalize.
  const std::string dir = "/nonexistent-obs-dir/";
  sim::Scheduler sched;
  testing::internal::CaptureStderr();
  {
    Observability obs;
    obs.attachAttribution();
    obs.attachCritPath(sched);
    obs.attachTelemetry(sched, 1.0);
    obs.attachOpTrace();
    for (int k = 0; k < kNumArtifacts; ++k) {
      const auto kind = static_cast<Artifact>(k);
      obs.exportArtifact(kind, dir + artifactName(kind) + ".json");
    }
    obs.finalize(1.0);
    obs.finalize(2.0);  // idempotent: no second write, no second error
  }
  const std::string err = testing::internal::GetCapturedStderr();
  for (int k = 0; k < kNumArtifacts; ++k) {
    const char* name = artifactName(static_cast<Artifact>(k));
    const std::string line = std::string("error: ") + name +
                             ": cannot write " + dir + name + ".json\n";
    const auto first = err.find(line);
    EXPECT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(line, first + 1), std::string::npos) << err;
  }
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), kNumArtifacts) << err;
}

TEST(Observability, SchedulerProbeCountsRootsAndEvents) {
  sim::Scheduler sched;
  Observability obs;
  obs.observeScheduler(sched);
  auto body = [&]() -> sim::Task<> { co_await sched.delay(1.0); };
  sched.spawn(body());
  sched.spawn(body());
  sched.run();
  obs.releaseScheduler();
  EXPECT_EQ(obs.metrics().counter("sched.roots").value(), 2u);
  EXPECT_GT(obs.metrics().counter("sched.events").value(), 0u);
}

/// Keeps every event it is handed, for asserting on emissions.
class CaptureSink final : public TraceSink {
 public:
  void event(const TraceEvent& ev) override { events.push_back(ev); }
  std::vector<TraceEvent> events;
};

TEST(IoOpSpan, AbandonedOpRecordsAtDestructionWithSchedulerClock) {
  sim::Scheduler sched;
  Observability obs;
  auto sink = std::make_shared<CaptureSink>();
  obs.addSink(sink);
  auto body = [&]() -> sim::Task<> {
    IoOpSpan op(&obs, sched, 1, "write");
    co_await sched.delay(2.0);
    // No stop(): destruction when the frame unwinds must still record.
  };
  sched.spawn(body());
  sched.run();
  ASSERT_EQ(sink->events.size(), 1u);
  const TraceEvent& ev = sink->events[0];
  EXPECT_EQ(ev.layer, Layer::kIo);
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_EQ(ev.tid, 1);
  EXPECT_STREQ(ev.name, "write");
  EXPECT_DOUBLE_EQ(ev.ts, 0.0);
  EXPECT_DOUBLE_EQ(ev.dur, 2.0);
  EXPECT_FALSE(ev.hasBytes);
}

TEST(IoOpSpan, StopThenDestroyRecordsExactlyOnce) {
  sim::Scheduler sched;
  Observability obs;
  auto sink = std::make_shared<CaptureSink>();
  obs.addSink(sink);
  auto body = [&]() -> sim::Task<> {
    IoOpSpan op(&obs, sched, 0, "close");
    co_await sched.delay(1.5);
    op.stop(7);
    co_await sched.delay(1.0);  // destroyed later: must not record again
  };
  sched.spawn(body());
  sched.run();
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_DOUBLE_EQ(sink->events[0].dur, 1.5);
  EXPECT_TRUE(sink->events[0].hasBytes);
  EXPECT_EQ(sink->events[0].bytes, 7u);
}

}  // namespace
}  // namespace bgckpt::obs
