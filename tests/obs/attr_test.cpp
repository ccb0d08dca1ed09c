// Blocked-time attribution, critical-path recorder and flight recorder.
#include "obs/attr.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/critpath.hpp"
#include "obs/flightrec.hpp"
#include "obs/obs.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"

namespace bgckpt::obs {
namespace {

TraceEvent mk(Layer layer, char phase, int tid, const char* name, double t0,
              double dur = 0) {
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = phase;
  ev.tid = tid;
  ev.name = name;
  ev.ts = t0;
  ev.dur = dur;
  return ev;
}

TEST(Attribution, ClassifiesBySpecificityDepth) {
  Phase phase;
  int depth;
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kApp, 'B', 0, "checkpoint", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kOther);
  EXPECT_EQ(depth, 1);
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kIo, 'X', 0, "send", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kHandoffSend);
  EXPECT_EQ(depth, 2);
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kMpi, 'X', 0, "barrier", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kBarrier);
  EXPECT_EQ(depth, 3);
  ASSERT_TRUE(AttributionEngine::classify(
      mk(Layer::kFilesystem, 'X', 0, "token_wait", 0), &phase, &depth));
  EXPECT_EQ(phase, Phase::kTokenWait);
  EXPECT_EQ(depth, 4);
  // No-signal events: p2p messages, the fs mirrors of kIo ops, counters.
  EXPECT_FALSE(AttributionEngine::classify(mk(Layer::kMpi, 'X', 0, "message", 0),
                                           &phase, &depth));
  EXPECT_FALSE(AttributionEngine::classify(
      mk(Layer::kFilesystem, 'X', 0, "write", 0), &phase, &depth));
  EXPECT_FALSE(AttributionEngine::classify(
      mk(Layer::kScheduler, 'X', 0, "root", 0), &phase, &depth));
}

TEST(Attribution, DeepestCoveringSpanWinsAndPartitionIsExact) {
  AttributionEngine eng;
  // Envelope [0,10]; a write [2,6]; a barrier [3,4] inside the write; a
  // token wait [3.2,3.5] inside the barrier window.
  eng.addEvent(mk(Layer::kApp, 'B', 0, "checkpoint", 0.0));
  eng.addEvent(mk(Layer::kIo, 'X', 0, "write", 2.0, 4.0));
  eng.addEvent(mk(Layer::kMpi, 'X', 0, "collective", 3.0, 1.0));
  eng.addEvent(mk(Layer::kFilesystem, 'X', 0, "token_wait", 3.2, 0.3));
  eng.addEvent(mk(Layer::kApp, 'E', 0, "checkpoint", 10.0));

  const auto r = eng.compute(12.0);
  ASSERT_EQ(r.ranks.size(), 1u);
  const auto& s = r.ranks[0].seconds;
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kCompute)], 2.0);   // [10,12]
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kOther)], 6.0);     // envelope gap
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kWrite)], 3.0);     // 4 - barrier
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kBarrier)], 0.7);   // 1 - token
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kTokenWait)], 0.3);
  EXPECT_NEAR(r.partitionDefect(), 0.0, 1e-12);
  EXPECT_NEAR(r.ranks[0].blocked(), 10.0, 1e-12);
}

TEST(Attribution, OpenEnvelopeExtendsToHorizonAndClampsPastIt) {
  AttributionEngine eng;
  eng.addEvent(mk(Layer::kApp, 'B', 3, "checkpoint", 1.0));  // never closed
  eng.addEvent(mk(Layer::kIo, 'X', 3, "write", 2.0, 100.0)); // runs past end
  const auto r = eng.compute(5.0);
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_EQ(r.ranks[0].rank, 3);
  const auto& s = r.ranks[0].seconds;
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kCompute)], 1.0);
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kOther)], 1.0);
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kWrite)], 3.0);
  EXPECT_NEAR(r.partitionDefect(), 0.0, 1e-12);
}

TEST(Attribution, SinkFinalizesOnceThroughObservability) {
  Observability obs;
  auto sink = std::make_shared<AttributionSink>();
  obs.addSink(sink);
  obs.begin(Layer::kApp, 0, "checkpoint", 0.0);
  obs.complete(Layer::kIo, 0, "write", 1.0, 3.0);
  obs.end(Layer::kApp, 0, "checkpoint", 4.0);
  obs.finalize(4.0);
  ASSERT_TRUE(sink->finalized());
  const auto& r = sink->report();
  EXPECT_DOUBLE_EQ(r.horizon, 4.0);
  EXPECT_DOUBLE_EQ(r.totals[static_cast<int>(Phase::kWrite)], 2.0);
  EXPECT_DOUBLE_EQ(r.blockedSeconds(), 4.0);
  // Re-finalizing at another horizon must not recompute.
  obs.finalize(8.0);
  EXPECT_DOUBLE_EQ(sink->report().horizon, 4.0);
}

TEST(Attribution, ReportExportsJson) {
  AttributionEngine eng;
  eng.addEvent(mk(Layer::kIo, 'X', 1, "send", 0.5, 0.25));
  const auto r = eng.compute(1.0);
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"horizon_seconds\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"handoff_send\": 0.25"), std::string::npos);
}

TEST(CritPath, WalksPredecessorChainAndBuckets) {
  CritPathRecorder rec;
  const auto none = sim::SchedulerHooks::kNoParent;
  // 0 --delay(1s)--> 1 --resource_grant "disk" (2s)--> 2 (terminal, t=3)
  // 3 is a dead-end sibling at t=2.
  rec.onEventScheduled(10, none, 0.0, sim::WakeKind::kSpawn, "spawn");
  rec.onEventScheduled(11, 10, 1.0, sim::WakeKind::kDelay, "a.cpp");
  rec.onEventScheduled(12, 11, 3.0, sim::WakeKind::kResourceGrant, "disk");
  rec.onEventScheduled(13, 10, 2.0, sim::WakeKind::kDelay, "b.cpp");
  const auto path = rec.computePath(3.0);
  EXPECT_EQ(path.eventsRecorded, 4u);
  EXPECT_EQ(path.steps, 3u);
  EXPECT_DOUBLE_EQ(path.pathSeconds, 3.0);
  const auto& grant =
      path.byKind[static_cast<std::size_t>(sim::WakeKind::kResourceGrant)];
  EXPECT_DOUBLE_EQ(grant.seconds, 2.0);
  EXPECT_EQ(grant.edges, 1u);
  ASSERT_FALSE(path.byLabel.empty());
  EXPECT_EQ(path.byLabel[0].label, "disk");  // heaviest label first
  ASSERT_EQ(path.tail.size(), 3u);
  EXPECT_EQ(path.tail.front().seq, 10u);  // chronological order
  EXPECT_EQ(path.tail.back().seq, 12u);
  const std::string json = path.toJson();
  EXPECT_NE(json.find("\"path_steps\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"resource_grant\""), std::string::npos);
}

TEST(CritPath, RecordsALiveSchedulerThroughAttachCritPath) {
  sim::Scheduler sched;
  Observability obs;
  auto& rec = obs.attachCritPath(sched);
  sim::Resource res(sched, 1, "disk");
  auto body = [](sim::Scheduler& s, sim::Resource& r) -> sim::Task<> {
    co_await r.acquire();
    co_await s.delay(1.0);
    r.release();
  };
  sched.spawn(body(sched, res));
  sched.spawn(body(sched, res));
  sched.run();
  obs.releaseScheduler();
  const auto path = rec.computePath(sched.now());
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  // The chain that bounds the makespan: both delays plus the grant edge.
  EXPECT_DOUBLE_EQ(path.pathSeconds, 2.0);
  EXPECT_GT(path.steps, 1u);
  const auto& grant =
      path.byKind[static_cast<std::size_t>(sim::WakeKind::kResourceGrant)];
  EXPECT_EQ(grant.edges, 1u);
  bool sawDisk = false;
  for (const auto& b : path.byLabel) sawDisk |= b.label == "disk";
  EXPECT_TRUE(sawDisk);
}

TEST(FlightRecorder, KeepsOnlyTheMostRecentEventsPerLayer) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.event(mk(Layer::kIo, 'X', i, i < 6 ? "write" : "close",
                 static_cast<double>(i), 0.5));
  EXPECT_EQ(rec.eventsSeen(), 10u);
  std::ostringstream os;
  rec.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("close"), std::string::npos);     // newest retained
  EXPECT_NE(out.find("tid=9"), std::string::npos);
  EXPECT_EQ(out.find("tid=5"), std::string::npos);     // oldest evicted
  EXPECT_NE(out.find("phase=close"), std::string::npos);  // attributed
}

TEST(FlightRecorder, RegistryDumpsLiveRecordersAndPrunesDead) {
  auto rec = FlightRecorder::create(8);
  rec->event(mk(Layer::kMpi, 'X', 2, "barrier", 1.0, 0.1));
  std::ostringstream os;
  EXPECT_GE(dumpFlightRecorders(os), 1u);
  EXPECT_NE(os.str().find("barrier"), std::string::npos);
  rec.reset();
  std::ostringstream empty;
  EXPECT_EQ(dumpFlightRecorders(empty), 0u);
}

}  // namespace
}  // namespace bgckpt::obs
