// Per-request causal tracing: null-context inertness, hop aggregation,
// sampling and tail retention, cascade completion through lineage links,
// the JSON export schema, and the full-stack rbIO fan-in guarantee.
#include "obs/optrace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "iolib/stack.hpp"
#include "iolib/strategies.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace bgckpt::obs {
namespace {

TEST(OpTrace, NullContextIsInert) {
  const OpTraceContext otc;  // default: untraced
  EXPECT_FALSE(otc.live());
  // Every member is a single branch on the null tracer; nothing may crash.
  otc.hop(Hop::kNetInject, 0.0, 1.0, 64);
  otc.link(OpTraceContext{});
  otc.complete(2.0);
  EXPECT_FALSE(mintOpTrace(nullptr, 3, "write", 0, 128, 0.0).live());
}

TEST(OpTrace, HopTotalsAggregatePerRequest) {
  OpTracer tracer(/*sampleEvery=*/1, /*tailN=*/4);
  const OpTraceContext otc = mintOpTrace(&tracer, 7, "write", 4096, 100, 1.0);
  ASSERT_TRUE(otc.live());
  // Two spans of the same hop inside one request merge into one hop total.
  otc.hop(Hop::kServerQueue, 1.0, 1.5);
  otc.hop(Hop::kServerQueue, 2.0, 2.25);
  otc.hop(Hop::kDdnCommit, 2.25, 2.5, 100);
  otc.complete(3.0);

  EXPECT_EQ(tracer.minted(), 1u);
  EXPECT_EQ(tracer.completed(), 1u);
  tracer.closeOut(3.0);
  const OpTracer::HopStat q = tracer.hopStat(Hop::kServerQueue);
  EXPECT_EQ(q.requests, 1u);
  EXPECT_DOUBLE_EQ(q.totalSeconds, 0.75);
  EXPECT_DOUBLE_EQ(q.p50, 0.75);
  EXPECT_DOUBLE_EQ(q.max, 0.75);
  EXPECT_EQ(tracer.hopStat("write", Hop::kDdnCommit).requests, 1u);
  EXPECT_EQ(tracer.hopStat("read", Hop::kDdnCommit).requests, 0u);
  EXPECT_DOUBLE_EQ(tracer.e2eQuantile(0.5), 2.0);
}

TEST(OpTrace, SamplingKeepsOneInNAndTheTail) {
  OpTracer tracer(/*sampleEvery=*/2, /*tailN=*/2);
  for (int i = 0; i < 6; ++i) {
    const OpTraceContext otc =
        mintOpTrace(&tracer, i, "write", 0, 10, 0.0);
    otc.complete(1.0 + i);  // id 5 is the slowest
  }
  tracer.closeOut(10.0);
  EXPECT_EQ(tracer.sampled(), 3u);  // ids 0, 2, 4

  const auto doc = json::parse(tracer.toJson());
  ASSERT_TRUE(doc.has_value());
  const json::Value* tail = doc->find("tail");
  ASSERT_NE(tail, nullptr);
  ASSERT_TRUE(tail->isArray());
  ASSERT_EQ(tail->array->size(), 2u);  // the 2 slowest, slowest first
  EXPECT_EQ((*tail->array)[0].numberOr("id", -1), 5.0);
  EXPECT_EQ((*tail->array)[1].numberOr("id", -1), 4.0);
  const json::Value* sampled = doc->find("sampled");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->array->size(), 3u);
}

TEST(OpTrace, CompleteCascadesToLinkedChildren) {
  OpTracer tracer(1, 4);
  const OpTraceContext parent =
      mintOpTrace(&tracer, 0, "commit", 0, 200, 0.0);
  const OpTraceContext childA = mintOpTrace(&tracer, 1, "handoff", 0, 100, 0.0);
  const OpTraceContext childB = mintOpTrace(&tracer, 2, "handoff", 100, 100, 0.0);
  parent.link(childA);
  parent.link(childB);
  // A context from another tracer must not link (cross-run contamination).
  OpTracer other(1, 4);
  parent.link(mintOpTrace(&other, 9, "handoff", 0, 1, 0.0));
  EXPECT_EQ(tracer.lineageEdges(), 2u);

  // The children's journeys end when the aggregate that swallowed them
  // commits; a child's own late complete is a harmless no-op.
  parent.complete(5.0);
  childA.complete(6.0);
  EXPECT_EQ(tracer.completed(), 3u);
  tracer.closeOut(5.0);
  ASSERT_EQ(tracer.fanIn().size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.fanIn().median(), 2.0);
  EXPECT_DOUBLE_EQ(tracer.e2eQuantile(1.0), 5.0);
}

TEST(OpTrace, CloseOutFlagsUnfinishedRequests) {
  OpTracer tracer(1, 4);
  mintOpTrace(&tracer, 0, "write", 0, 10, 1.0);  // never completed
  tracer.closeOut(4.0);
  const auto doc = json::parse(tracer.toJson());
  ASSERT_TRUE(doc.has_value());
  const json::Value* reqs = doc->find("requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_EQ(reqs->numberOr("minted", 0), 1.0);
  EXPECT_EQ(reqs->numberOr("unfinished", 0), 1.0);
}

// ---- full-stack guarantees -----------------------------------------------

iolib::SimStackOptions quiet() {
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  return opt;
}

iolib::CheckpointSpec smallSpec() {
  iolib::CheckpointSpec spec;
  spec.fieldBytesPerRank = 2048;
  spec.numFields = 2;
  spec.headerBytes = 512;
  return spec;
}

std::string runOpTraceExport(const iolib::StrategyConfig& cfg) {
  iolib::SimStack stack(256, quiet());
  const OpTracer& tracer = stack.obs.attachOpTrace(/*sampleEvery=*/1);
  iolib::runCheckpoint(stack, smallSpec(), cfg);
  stack.obs.finalize(stack.sched.now());
  return tracer.toJson();
}

TEST(OpTraceStack, RbIoReproducesFanInLineage) {
  iolib::SimStack stack(256, quiet());
  stack.obs.attachOpTrace(1);
  iolib::runCheckpoint(stack, smallSpec(),
                       iolib::StrategyConfig::rbIo(64, true));
  stack.obs.finalize(stack.sched.now());
  const OpTracer& tracer = *stack.obs.opTracer();
  // 256 handoffs + 4 aggregate commits, every block linked to its writer.
  EXPECT_EQ(tracer.minted(), tracer.completed());
  EXPECT_EQ(tracer.lineageEdges(), 256u);
  ASSERT_EQ(tracer.fanIn().size(), 4u);
  EXPECT_DOUBLE_EQ(tracer.fanIn().median(), 64.0);
  // The commit path must have crossed the fs-server and the DDN.
  EXPECT_EQ(tracer.hopStat("commit", Hop::kServerQueue).requests, 4u);
  EXPECT_EQ(tracer.hopStat("commit", Hop::kDdnCommit).requests, 4u);
  EXPECT_EQ(tracer.hopStat("handoff", Hop::kHandoffSend).requests, 252u);
}

TEST(OpTraceStack, ExportIsByteIdenticalAcrossIdenticalRuns) {
  const std::string a = runOpTraceExport(iolib::StrategyConfig::rbIo(8, true));
  const std::string b = runOpTraceExport(iolib::StrategyConfig::rbIo(8, true));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"bgckpt-optrace-1\""), std::string::npos);
  const auto doc = json::parse(a);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->stringOr("schema", ""), OpTracer::kSchemaVersion);
}

TEST(OpTraceStack, OnePfppTracesEveryFieldWrite) {
  const std::string a = runOpTraceExport(iolib::StrategyConfig::onePfpp());
  const auto doc = json::parse(a);
  ASSERT_TRUE(doc.has_value());
  const json::Value* reqs = doc->find("requests");
  ASSERT_NE(reqs, nullptr);
  // Per rank: create + (header + 2 fields) writes + close = 5 requests.
  EXPECT_EQ(reqs->numberOr("minted", 0), 256.0 * 5);
  EXPECT_EQ(reqs->numberOr("unfinished", -1), 0.0);
}

}  // namespace
}  // namespace bgckpt::obs
