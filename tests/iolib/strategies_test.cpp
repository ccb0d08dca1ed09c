#include "iolib/strategies.hpp"

#include <gtest/gtest.h>

#include "iolib/layout.hpp"
#include "profiling/profile.hpp"

namespace bgckpt::iolib {
namespace {

SimStackOptions quietOptions() {
  SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  return opt;
}

CheckpointSpec smallSpec(bool payload) {
  CheckpointSpec spec;
  spec.fieldBytesPerRank = 2048;
  spec.numFields = 4;
  spec.headerBytes = 512;
  spec.carryPayload = payload;
  return spec;
}

TEST(Strategies, OnePfppWritesOneFilePerRankWithFullCoverage) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(false);
  auto result = runCheckpoint(stack, spec, StrategyConfig::onePfpp());
  EXPECT_EQ(stack.fsys.image().fileCount(), 256u);
  GroupFileLayout layout(spec, 1);
  for (int r = 0; r < 256; ++r) {
    const auto* img = stack.fsys.image().find(checkpointPath(spec, r));
    ASSERT_NE(img, nullptr) << "missing file for rank " << r;
    EXPECT_TRUE(img->coversExactly(layout.fileBytes()));
  }
  EXPECT_GT(result.makespan, 0);
  EXPECT_EQ(result.logicalBytes,
            256u * spec.bytesPerRank() + 256u * spec.headerBytes);
}

TEST(Strategies, OnePfppContentMatchesPattern) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(true);
  runCheckpoint(stack, spec, StrategyConfig::onePfpp());
  GroupFileLayout layout(spec, 1);
  const auto* img = stack.fsys.image().find(checkpointPath(spec, 37));
  ASSERT_NE(img, nullptr);
  for (int f = 0; f < spec.numFields; ++f) {
    auto bytes = img->readBytes({layout.fieldOffset(f, 0),
                                 spec.fieldBytesPerRank});
    for (std::uint64_t i = 0; i < bytes.size(); i += 197)
      ASSERT_EQ(bytes[i], patternByte(37, f, i));
  }
}

TEST(Strategies, CoIoCoversGroupFiles) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(false);
  auto result = runCheckpoint(stack, spec, StrategyConfig::coIo(4));
  EXPECT_EQ(stack.fsys.image().fileCount(), 4u);
  GroupFileLayout layout(spec, 64);
  for (int part = 0; part < 4; ++part) {
    const auto* img = stack.fsys.image().find(checkpointPath(spec, part));
    ASSERT_NE(img, nullptr);
    EXPECT_TRUE(img->coversExactly(layout.fileBytes()))
        << "part " << part << " has gaps";
  }
  EXPECT_GT(result.bandwidth, 0);
}

TEST(Strategies, RbIoIndependentCoversGroupFiles) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(false);
  auto result = runCheckpoint(stack, spec, StrategyConfig::rbIo(64, true));
  EXPECT_EQ(stack.fsys.image().fileCount(), 4u);
  GroupFileLayout layout(spec, 64);
  for (int part = 0; part < 4; ++part) {
    const auto* img = stack.fsys.image().find(checkpointPath(spec, part));
    ASSERT_NE(img, nullptr);
    EXPECT_TRUE(img->coversExactly(layout.fileBytes()));
  }
  EXPECT_EQ(result.numWriters, 4);
  EXPECT_GT(result.perceivedBandwidth, 0);
}

TEST(Strategies, RbIoSharedFileCoversEverything) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(false);
  auto result = runCheckpoint(stack, spec, StrategyConfig::rbIo(64, false));
  EXPECT_EQ(stack.fsys.image().fileCount(), 1u);
  GroupFileLayout layout(spec, 256);
  const auto* img = stack.fsys.image().find(checkpointPath(spec, 0));
  ASSERT_NE(img, nullptr);
  EXPECT_TRUE(img->coversExactly(layout.fileBytes()));
  EXPECT_GT(result.makespan, 0);
}

// The paper's correctness invariant: rbIO's application-level two-phase
// aggregation must produce byte-identical files to coIO's MPI-IO two-phase
// (same nf, same layout).
TEST(Strategies, RbIoAndCoIoProduceIdenticalFiles) {
  auto spec = smallSpec(true);
  SimStack coStack(256, quietOptions());
  runCheckpoint(coStack, spec, StrategyConfig::coIo(4));
  SimStack rbStack(256, quietOptions());
  runCheckpoint(rbStack, spec, StrategyConfig::rbIo(64, true));
  for (int part = 0; part < 4; ++part) {
    const auto* a = coStack.fsys.image().find(checkpointPath(spec, part));
    const auto* b = rbStack.fsys.image().find(checkpointPath(spec, part));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->contentHash(), b->contentHash()) << "part " << part;
    EXPECT_EQ(a->size(), b->size());
  }
}

TEST(Strategies, SharedFileVariantsProduceIdenticalContent) {
  auto spec = smallSpec(true);
  SimStack coStack(256, quietOptions());
  runCheckpoint(coStack, spec, StrategyConfig::coIo(1));
  SimStack rbStack(256, quietOptions());
  runCheckpoint(rbStack, spec, StrategyConfig::rbIo(64, false));
  const auto* a = coStack.fsys.image().find(checkpointPath(spec, 0));
  const auto* b = rbStack.fsys.image().find(checkpointPath(spec, 0));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->contentHash(), b->contentHash());
}

TEST(Strategies, RbIoWorkersBlockMicrosecondsWhileWritersBlockLonger) {
  SimStack stack(1024, quietOptions());
  CheckpointSpec spec;
  spec.fieldBytesPerRank = 240'000;  // the paper's 2.4 MB per rank
  spec.numFields = 10;
  auto result = runCheckpoint(stack, spec, StrategyConfig::rbIo(64, true));
  // The two "lines" of Fig. 11.
  EXPECT_LT(result.workerMakespan, 1e-3);
  EXPECT_GT(result.writerMakespan, 0.1);
  EXPECT_GT(result.writerMakespan, 1000 * result.workerMakespan);
  // Perceived bandwidth dwarfs raw disk bandwidth (Table I).
  EXPECT_GT(result.perceivedBandwidth, 50 * result.bandwidth);
}

TEST(Strategies, RbIoPerceivedBandwidthInTbPerSecondRange) {
  SimStack stack(4096, quietOptions());
  auto spec = CheckpointSpec::nekcemWeakScaling(4096);
  auto result = runCheckpoint(stack, spec, StrategyConfig::rbIo(64, true));
  // 4095/4096 of ~9.8 GB shipped in ~100 microseconds of worst-case Isend.
  EXPECT_GT(result.perceivedBandwidth, 1e13);  // > 10 TB/s
  EXPECT_LT(result.maxIsendSeconds, 1e-3);
}

TEST(Strategies, CoIoSplitFilesBeatSingleSharedFile) {
  auto spec = smallSpec(false);
  spec.fieldBytesPerRank = 64 * 1024;
  SimStack one(1024, quietOptions());
  auto rOne = runCheckpoint(one, spec, StrategyConfig::coIo(1));
  SimStack split(1024, quietOptions());
  auto rSplit = runCheckpoint(split, spec, StrategyConfig::coIo(16));
  EXPECT_GT(rSplit.bandwidth, rOne.bandwidth);
}

TEST(Strategies, InvalidConfigsThrow) {
  SimStack stack(256, quietOptions());
  auto spec = smallSpec(false);
  EXPECT_THROW(runCheckpoint(stack, spec, StrategyConfig::coIo(3)),
               std::invalid_argument);  // 3 does not divide 256
  StrategyConfig bad = StrategyConfig::rbIo(7, true);
  EXPECT_THROW(runCheckpoint(stack, spec, bad), std::invalid_argument);
}

TEST(Strategies, ProfileRecordsAllOpKinds) {
  prof::IoProfile profile;
  SimStack stack(256, quietOptions());
  stack.obs.addSink(std::make_shared<prof::IoProfileSink>(profile));
  auto spec = smallSpec(false);
  runCheckpoint(stack, spec, StrategyConfig::rbIo(64, true));
  EXPECT_GT(profile.opCount(prof::Op::kSend), 0u);
  EXPECT_GT(profile.opCount(prof::Op::kRecv), 0u);
  EXPECT_GT(profile.opCount(prof::Op::kWrite), 0u);
  EXPECT_GT(profile.opCount(prof::Op::kCreate), 0u);
  // 252 workers sent ~one package each.
  EXPECT_EQ(profile.opCount(prof::Op::kSend), 252u);
  EXPECT_EQ(profile.totalBytes(prof::Op::kSend),
            252u * spec.bytesPerRank());
}

TEST(Strategies, DeterministicAcrossIdenticalRuns) {
  auto runOnce = [] {
    SimStack stack(256, SimStackOptions{});  // default noise, fixed seed
    auto spec = smallSpec(false);
    return runCheckpoint(stack, spec, StrategyConfig::coIo(4)).makespan;
  };
  EXPECT_DOUBLE_EQ(runOnce(), runOnce());
}

TEST(Strategies, StrategyDescribeStrings) {
  EXPECT_EQ(StrategyConfig::onePfpp().describe(), "1PFPP (nf=np)");
  EXPECT_EQ(StrategyConfig::coIo(64).describe(), "coIO nf=64");
  EXPECT_EQ(StrategyConfig::rbIo(64, true).describe(),
            "rbIO np:ng=64:1, nf=ng");
  EXPECT_EQ(StrategyConfig::rbIo(64, false).describe(),
            "rbIO np:ng=64:1, nf=1");
}

}  // namespace
}  // namespace bgckpt::iolib
