// Ablation / future work: GPFS vs the lock-free PVFS personality.
//
// The paper attempted a GPFS-vs-PVFS comparison but dropped it because the
// Intrepid deployments differed too much ("cache was turned off on PVFS").
// The simulator can hold everything else fixed: same machine, same noise,
// same strategies — only the filesystem personality changes. The
// expectation from the locking model: PVFS's lock-free writes help most
// exactly where GPFS pays tokens (the single shared file), and metadata-
// heavy 1PFPP remains bad either way.
#include <cstdio>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Ablation - GPFS vs lock-free PVFS personality",
         "The comparison the paper had to skip (Section V-C1).");

  constexpr int kNp = 16384;
  // Hold the per-stream data rate equal so only locking/metadata differ.
  iolib::SimStackOptions gpfs;
  iolib::SimStackOptions pvfs;
  pvfs.fsConfig = fs::pvfsConfig();
  pvfs.fsConfig.writeStreamBandwidth = gpfs.fsConfig.writeStreamBandwidth;
  pvfs.fsConfig.readStreamBandwidth = gpfs.fsConfig.readStreamBandwidth;

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double gpfsBw = 0;
    double pvfsBw = 0;
  };
  std::vector<Row> rows = {
      {"1PFPP", iolib::StrategyConfig::onePfpp()},
      {"coIO nf=1", iolib::StrategyConfig::coIo(1)},
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO nf=1", iolib::StrategyConfig::rbIo(64, false)},
      {"rbIO nf=ng", iolib::StrategyConfig::rbIo(64, true)},
  };
  std::printf("\n  %-12s | %10s | %10s | %s\n", "strategy", "GPFS", "PVFS",
              "PVFS/GPFS");
  std::vector<SimPoint> points;
  for (const auto& row : rows) {
    points.push_back({kNp, row.cfg, gpfs});
    points.push_back({kNp, row.cfg, pvfs});
  }
  const auto results = runSims(points);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto& row = rows[i];
    row.gpfsBw = results[2 * i].bandwidth;
    row.pvfsBw = results[2 * i + 1].bandwidth;
    std::printf("  %-12s | %7.2f GB/s | %7.2f GB/s | %5.2fx\n", row.name,
                row.gpfsBw / 1e9, row.pvfsBw / 1e9, row.pvfsBw / row.gpfsBw);
  }

  std::vector<Check> checks;
  const double sharedGain = rows[1].pvfsBw / rows[1].gpfsBw;   // coIO nf=1
  const double splitGain = rows[2].pvfsBw / rows[2].gpfsBw;    // coIO 64:1
  checks.push_back({"lock-free helps the single shared file the most",
                    sharedGain > splitGain,
                    std::to_string(sharedGain) + "x vs " +
                        std::to_string(splitGain) + "x"});
  checks.push_back({"shared-file writes gain substantially without tokens",
                    sharedGain > 1.3, std::to_string(sharedGain) + "x"});
  checks.push_back({"1PFPP stays catastrophic on PVFS too (metadata-bound, "
                    "single MDS)",
                    rows[0].pvfsBw < 0.2 * rows[4].pvfsBw,
                    gbs(rows[0].pvfsBw) + " vs rbIO " +
                        gbs(rows[4].pvfsBw)});
  checks.push_back({"rbIO nf=ng barely changes (it avoided locks by design)",
                    rows[4].pvfsBw < 1.3 * rows[4].gpfsBw &&
                        rows[4].pvfsBw > 0.8 * rows[4].gpfsBw,
                    std::to_string(rows[4].pvfsBw / rows[4].gpfsBw) + "x"});
  return reportChecks(checks);
}
