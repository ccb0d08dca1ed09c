// Ablation: the paper's remark on 1PFPP — "Better performance may be
// achieved by producing a single file per directory. However, most
// parallel file systems are not designed to deal with hundreds of
// thousands of small files, and manageability becomes a significant
// issue." One rank per directory dodges the directory-token storm, but
// the tuned approaches still win and the file count is unchanged.
#include <cstdio>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Ablation - 1PFPP with one file per directory",
         "Removing the shared-directory metadata storm from 1PFPP.");

  constexpr int kNp = 16384;
  auto shared = iolib::StrategyConfig::onePfpp();
  auto privateDirs = iolib::StrategyConfig::onePfpp();
  privateDirs.onePfppPrivateDirs = true;

  const auto results =
      runSims({{kNp, shared, {}},
               {kNp, privateDirs, {}},
               {kNp, iolib::StrategyConfig::rbIo(64, true), {}}});
  const auto& sharedRun = results[0];
  const auto& privateRun = results[1];
  const auto& rbio = results[2];

  std::printf("\n  1PFPP, one shared directory : %8s (%s)\n",
              secs(sharedRun.makespan).c_str(),
              gbs(sharedRun.bandwidth).c_str());
  std::printf("  1PFPP, one dir per rank     : %8s (%s)\n",
              secs(privateRun.makespan).c_str(),
              gbs(privateRun.bandwidth).c_str());
  std::printf("  rbIO 64:1 nf=ng (reference) : %8s (%s)\n",
              secs(rbio.makespan).c_str(), gbs(rbio.bandwidth).c_str());
  std::printf("\n  ...but the private-dir variant still leaves %d files "
              "(plus %d directories)\n  per checkpoint to manage, versus "
              "%d for rbIO.\n",
              kNp, kNp, kNp / 64);

  std::vector<Check> checks;
  checks.push_back({"per-rank directories remove the metadata storm "
                    "(~10x faster than the shared directory; the residual cost\n"
                    "is 16K concurrent streams thrashing the arrays)",
                    privateRun.makespan * 8 < sharedRun.makespan,
                    secs(privateRun.makespan) + " vs " +
                        secs(sharedRun.makespan)});
  checks.push_back({"16K tiny files still lose to rbIO's aggregated streams",
                    privateRun.bandwidth < rbio.bandwidth,
                    gbs(privateRun.bandwidth) + " vs " +
                        gbs(rbio.bandwidth)});
  checks.push_back({"private-dir 1PFPP becomes at least usable "
                    "(under 60 s per checkpoint)",
                    privateRun.makespan < 60.0,
                    secs(privateRun.makespan)});
  return reportChecks(checks);
}
