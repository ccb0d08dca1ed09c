// RuntimeProfiler: parallelFor region recording with point labels, the
// region retention cap, and the JSON export round-tripped through the obs
// JSON parser.
#include "obs/runtimeprof.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "simcore/parallel.hpp"

namespace bgckpt::obs {
namespace {

// Render `prof` and parse it back.
std::optional<json::Value> exportAndParse(const RuntimeProfiler& prof) {
  std::string parseError;
  auto doc = json::parse(prof.toJson(), &parseError);
  EXPECT_TRUE(doc.has_value()) << parseError;
  return doc;
}

TEST(RuntimeProfiler, ParallelForRegionCarriesPointLabels) {
  RuntimeProfiler prof;
  prof.install();
  prof.setPointLabels({"pt-a", "pt-b", "pt-c"});
  std::vector<int> slots(3, 0);
  sim::parallelFor(3, 2, [&](std::size_t i) { slots[i] = 1; });
  prof.uninstall();

  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 3);
  ASSERT_EQ(prof.regions().size(), 1u);
  const ParallelRegionProfile& region = *prof.regions().front();
  EXPECT_EQ(region.jobs, 3u);
  EXPECT_EQ(region.threads, 2u);
  EXPECT_GT(region.wallNs, 0u);
  ASSERT_EQ(region.perJob.size(), 3u);
  EXPECT_EQ(region.perJob[0].label, "pt-a");
  EXPECT_EQ(region.perJob[1].label, "pt-b");
  EXPECT_EQ(region.perJob[2].label, "pt-c");
  for (const auto& job : region.perJob) EXPECT_LT(job.worker, 2u);
}

TEST(RuntimeProfiler, SerialParallelForStillRecordsRegion) {
  RuntimeProfiler prof;
  prof.install();
  sim::parallelFor(2, 1, [](std::size_t) {});
  prof.uninstall();
  ASSERT_EQ(prof.regions().size(), 1u);
  EXPECT_EQ(prof.regions().front()->threads, 1u);
  EXPECT_EQ(prof.regions().front()->jobs, 2u);
}

TEST(RuntimeProfiler, RetentionCapCountsDroppedRegions) {
  RuntimeProfiler::Config cfg;
  cfg.maxRegions = 1;
  RuntimeProfiler prof(cfg);
  prof.install();
  sim::parallelFor(2, 1, [](std::size_t) {});
  sim::parallelFor(2, 1, [](std::size_t) {});
  prof.uninstall();
  EXPECT_EQ(prof.regions().size(), 1u);

  const auto doc = exportAndParse(prof);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->numberOr("dropped_regions", 0), 1.0);
  const auto* regions = doc->find("parallel_regions");
  ASSERT_TRUE(regions != nullptr && regions->isArray());
  EXPECT_EQ(regions->array->size(), 1u);
}

TEST(RuntimeProfiler, WriteJsonRoundTripsThroughParser) {
  RuntimeProfiler prof;
  prof.install();
  prof.setPointLabels({"j0", "j1"});
  sim::parallelFor(2, 2, [](std::size_t) {});
  prof.recordPoint("j0", 1.25, 1000, 2);
  prof.uninstall();

  const auto doc = exportAndParse(prof);
  ASSERT_TRUE(doc.has_value());

  EXPECT_EQ(doc->stringOr("schema", ""), kRuntimeProfSchemaVersion);
  EXPECT_EQ(doc->stringOr("clock", ""), "steady");
  EXPECT_EQ(doc->find("shard_runs"), nullptr);
  EXPECT_EQ(doc->numberOr("dropped_regions", -1.0), 0.0);
  const auto* regions = doc->find("parallel_regions");
  ASSERT_TRUE(regions != nullptr && regions->isArray());
  ASSERT_EQ(regions->array->size(), 1u);
  const auto* jobs = regions->array->front().find("jobs_detail");
  ASSERT_TRUE(jobs != nullptr && jobs->isArray());
  EXPECT_EQ(jobs->array->front().stringOr("label", ""), "j0");
  const auto* points = doc->find("points");
  ASSERT_TRUE(points != nullptr && points->isArray());
  ASSERT_EQ(points->array->size(), 1u);
  EXPECT_EQ(points->array->front().numberOr("wall_s", 0), 1.25);
}

}  // namespace
}  // namespace bgckpt::obs
