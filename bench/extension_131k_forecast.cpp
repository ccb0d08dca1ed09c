// Extension: forecast at full-Intrepid scale. The paper measured 16K-64K
// cores and notes NekCEM itself scales to 131K; its conclusion predicts
// rbIO "can use application-level, two-phase I/O to achieve improved
// performance and better scalability". This harness runs the calibrated
// simulator at 131,072 ranks (1.1 billion grid points, ~315 GB per
// checkpoint) to see whether the paper's trends extrapolate: rbIO nf=ng
// should hold near the system ceiling while coIO 64:1 degrades further
// (8192 concurrent streams) and the 1PFPP storm deepens.
#include <cstdio>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Extension - forecast at 131,072 ranks (full Intrepid)",
         "Extrapolating Fig. 5 one doubling beyond the paper's data.");

  constexpr int kNp = 131072;
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kNp);
  std::printf("\ncheckpoint volume: %.0f GB per step\n",
              static_cast<double>(kNp) *
                  static_cast<double>(spec.bytesPerRank()) / 1e9);

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double bandwidth = 0;
    double makespan = 0;
  };
  std::vector<Row> rows = {
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
      {"rbIO 128:1 nf=ng", iolib::StrategyConfig::rbIo(128, true)},
  };
  std::vector<SimPoint> points;
  for (const auto& row : rows) points.push_back({kNp, row.cfg, {}});
  // The 64K reference points for trend checks.
  points.push_back({65536, iolib::StrategyConfig::rbIo(64, true), {}});
  points.push_back({65536, iolib::StrategyConfig::coIo(65536 / 64), {}});
  const auto results = runSims(points);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto& row = rows[i];
    row.bandwidth = results[i].bandwidth;
    row.makespan = results[i].makespan;
    std::printf("  %-18s %8s  (makespan %s)\n", row.name,
                gbs(row.bandwidth).c_str(), secs(row.makespan).c_str());
  }
  const auto& rb64k = results[rows.size()];
  const auto& co64k = results[rows.size() + 1];

  std::vector<Check> checks;
  checks.push_back(
      {"rbIO 64:1 still beats coIO 64:1 at 131K",
       rows[1].bandwidth > rows[0].bandwidth,
       gbs(rows[1].bandwidth) + " vs " + gbs(rows[0].bandwidth)});
  checks.push_back(
      {"coIO 64:1 keeps degrading past 64K (8192 streams of thrash)",
       rows[0].bandwidth < co64k.bandwidth,
       gbs(rows[0].bandwidth) + " vs " + gbs(co64k.bandwidth) + " at 64K"});
  checks.push_back(
      {"rbIO 64:1 holds most of its 64K bandwidth at 131K",
       rows[1].bandwidth > 0.5 * rb64k.bandwidth,
       gbs(rows[1].bandwidth) + " vs " + gbs(rb64k.bandwidth) + " at 64K"});
  checks.push_back(
      {"retuning helps: np:ng=128:1 (nf=1024, the Fig. 8 optimum) beats "
       "64:1 (nf=2048) at this scale",
       rows[2].bandwidth > rows[1].bandwidth,
       gbs(rows[2].bandwidth) + " vs " + gbs(rows[1].bandwidth)});
  return reportChecks(checks);
}
