// Self-tests of the benchmark's own code: the label -> module table, the
// host-time attribution's coverage, and the host-ckpt failure path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "layer_clock.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using bgckpt::iolib::RestartConfig;
using bgckpt::iolib::RestartMode;
using bgckpt::iolib::StrategyConfig;

SimPoint smallPoint(std::string label, int np, StrategyConfig cfg,
                    RestartMode mode, int groupSize) {
  return SimPoint{std::move(label), np, std::move(cfg),
                  RestartConfig{mode, groupSize}, 0.0};
}

std::vector<SimPoint> everyStrategy(int np) {
  return {
      smallPoint("1PFPP", np, StrategyConfig::onePfpp(), RestartMode::kDirect,
                 1),
      smallPoint("coIO nf=1", np, StrategyConfig::coIo(1),
                 RestartMode::kDirect, np),
      smallPoint("coIO 64:1", np, StrategyConfig::coIo(np / 64),
                 RestartMode::kLeaderScatter, 64),
      smallPoint("rbIO nf=1", np, StrategyConfig::rbIo(64, false),
                 RestartMode::kDirect, np),
      smallPoint("rbIO nf=ng", np, StrategyConfig::rbIo(64, true),
                 RestartMode::kLeaderScatter, 64),
  };
}

TEST(LabelTable, MapsSourceFilesByDirectory) {
  EXPECT_EQ(moduleForLabel("/x/src/fssim/parallel_fs.cpp"), Module::kFssim);
  EXPECT_EQ(moduleForLabel("src/netsim/torus.cpp"), Module::kNetsim);
  EXPECT_EQ(moduleForLabel("/a/src/b/src/mpiio/file.cpp"), Module::kMpiio);
  EXPECT_EQ(moduleForLabel("/x/src/obs/obs.cpp"), Module::kOther);
  EXPECT_EQ(moduleForLabel("/x/mysrc/fssim/a.cpp"), Module::kOther);
  EXPECT_EQ(moduleForLabel("fs-token-server"), Module::kFssim);
  EXPECT_EQ(moduleForLabel("no-such-resource"), Module::kOther);
}

TEST(LabelTable, MapsEveryLabelOfEveryStrategyAt256Ranks) {
  // Labels deliberately left in `other`, each with the reason. Empty: every
  // label the five strategies produce belongs to a module.
  const std::set<std::string> kExpectedOther = {};
  std::set<std::string> other;
  SpanLog log(false);
  for (const SimPoint& p : everyStrategy(256)) {
    const PointRun run = runSimPoint(p, kDefaultSeed, log, Probe::kLayerClock);
    EXPECT_TRUE(run.errors.empty()) << p.label << ": " << run.errors.front();
    EXPECT_FALSE(run.labels.empty()) << p.label;
    for (const LayerClock::LabelStat& l : run.labels)
      if (l.module == Module::kOther) other.insert(l.label);
  }
  EXPECT_EQ(other, kExpectedOther);
}

TEST(LayerClock, ModuleTimesSumToTheTracedCheckpointTime) {
  SpanLog log(false);
  for (const SimPoint& p : everyStrategy(4096)) {
    const PointRun run = runSimPoint(p, kDefaultSeed, log, Probe::kLayerClock);
    ASSERT_TRUE(run.errors.empty()) << p.label << ": " << run.errors.front();
    const double attributed = run.ckptModules.total();
    EXPECT_LE(attributed, run.ckptS * (1 + 1e-9)) << p.label;
    EXPECT_GE(attributed, run.ckptS * (1 - kAttributionTolerance))
        << p.label << ": " << attributed << " s of " << run.ckptS << " s";
    std::uint64_t events = 0;
    for (std::uint64_t e : run.ckptModules.events) events += e;
    EXPECT_EQ(events, run.counts.events) << p.label;
  }
}

TEST(LayerClock, TracingLeavesTheSimulationUnchanged) {
  SpanLog log(false);
  for (const SimPoint& p : everyStrategy(256)) {
    const PointRun plain = runSimPoint(p, kDefaultSeed, log, Probe::kNone);
    for (Probe probe : {Probe::kLayerClock, Probe::kAttribution})
      EXPECT_EQ(plain.counts, runSimPoint(p, kDefaultSeed, log, probe).counts)
          << p.label;
  }
}

TEST(SpanLog, NestsSpansAndMeasuresWhenDisabled) {
  SpanLog log(true);
  {
    ScopedSpan outer(log, "outer");
    { ScopedSpan inner(log, "inner"); }
    ScopedSpan second(log, "second");
  }
  ScopedSpan after(log, "after");
  after.stop();
  const auto& spans = log.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_LE(spans[1].end, spans[2].start);
  EXPECT_LE(spans[2].end, spans[0].end);

  SpanLog quiet(false);
  ScopedSpan s(quiet, "x");
  EXPECT_GE(s.stop(), 0.0);
  EXPECT_EQ(s.stop(), s.stop());
  EXPECT_TRUE(quiet.spans().empty());
}

class HostCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::current_path() /
            ("perfbench_selftest_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    spec_.directory = dir_;
    spec_.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
    spec_.fieldBytesPerRank = 4096;
    spec_.iteration = 7;
    data_ = hostPayload(spec_, 7);
    bgckpt::hostio::HostConfig config;
    config.strategy = bgckpt::hostio::HostStrategy::kCoIo;
    config.nf = 1;
    bgckpt::hostio::writeCheckpoint(spec_, config, data_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string check() {
    SpanLog log(false);
    double verifyS = 0, readS = 0;
    return checkHostCheckpoint(spec_, data_, log, &verifyS, &readS);
  }

  std::string dir_;
  bgckpt::hostio::HostSpec spec_;
  std::vector<bgckpt::hostio::HostRankData> data_;
};

TEST_F(HostCheckTest, IntactCheckpointPasses) { EXPECT_EQ(check(), ""); }

TEST_F(HostCheckTest, CorruptPartFileIsAFailedOperation) {
  const std::string part = bgckpt::hostio::hostCheckpointPath(spec_, 0);
  {
    std::fstream f(part, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-100, std::ios::end);  // inside the last field's data
    f.put('\x5a');
    f.put('\xa5');
  }
  std::string why;
  EXPECT_NO_THROW(why = check());
  EXPECT_NE(why, "");
}

TEST_F(HostCheckTest, TruncatedPartFileIsAFailedOperation) {
  const std::string part = bgckpt::hostio::hostCheckpointPath(spec_, 0);
  std::filesystem::resize_file(part, std::filesystem::file_size(part) / 2);
  std::string why;
  EXPECT_NO_THROW(why = check());
  EXPECT_NE(why, "");
}

TEST(HostPayload, SameSeedSameBytesOtherSeedOtherBytes) {
  bgckpt::hostio::HostSpec spec;
  spec.fieldNames = {"Ex", "Ey"};
  spec.fieldBytesPerRank = 1000;  // not a multiple of 8
  const auto a = hostPayload(spec, 1);
  EXPECT_EQ(a[2].fields, hostPayload(spec, 1)[2].fields);
  EXPECT_NE(a[2].fields, hostPayload(spec, 2)[2].fields);
  EXPECT_NE(a[0].fields[0], a[0].fields[1]);
}

}  // namespace
