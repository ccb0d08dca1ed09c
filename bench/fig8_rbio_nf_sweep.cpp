// Figure 8: rbIO (nf=ng) bandwidth as a function of the number of files,
// for 16K/32K/64K processors. The paper's observation: the GPFS deployment
// on Intrepid prefers ~1024 concurrently-written files at every scale —
// too few files underuse the per-stream service slots, too many thrash the
// storage arrays and the directory metadata.
#include <cstdio>
#include <map>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Figure 8 - rbIO write performance vs number of files",
         "rbIO with nf = ng, sweeping the writer-group ratio.");

  const std::vector<int> scales = {16384, 32768, 65536};
  const std::vector<int> files = {256, 512, 1024, 2048, 4096};
  std::vector<SimPoint> points;
  for (int np : scales)
    for (int nf : files)
      if (np / nf >= 2)
        points.push_back({np, iolib::StrategyConfig::rbIo(np / nf, true), {}});
  const auto results = runSims(points);

  std::map<int, std::map<int, double>> bw;  // np -> nf -> GB/s

  std::size_t k = 0;
  for (int np : scales) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (; k < points.size() && points[k].np == np; ++k) {
      const int groupSize = points[k].cfg.groupSize;
      const int nf = np / groupSize;
      const auto& r = results[k];
      bw[np][nf] = r.bandwidth;
      bars.push_back({"nf=" + std::to_string(nf), r.bandwidth / 1e9});
      std::printf("  nf=%5d (np:ng=%3d:1)  %-12s  makespan %s\n", nf,
                  groupSize, gbs(r.bandwidth).c_str(),
                  secs(r.makespan).c_str());
    }
    std::printf("%s", analysis::barChart(bars, "GB/s").c_str());
  }

  std::vector<Check> checks;
  for (int np : scales) {
    int best = 0;
    double bestBw = 0;
    for (const auto& [nf, v] : bw[np])
      if (v > bestBw) {
        bestBw = v;
        best = nf;
      }
    checks.push_back({"optimum at nf=1024 for np=" + std::to_string(np),
                      best == 1024,
                      "best nf=" + std::to_string(best) + " at " +
                          gbs(bestBw)});
  }
  for (int np : scales) {
    checks.push_back(
        {"too few files underperform at np=" + std::to_string(np),
         bw[np][256] < 0.8 * bw[np][1024],
         gbs(bw[np][256]) + " vs " + gbs(bw[np][1024])});
    checks.push_back(
        {"too many files underperform at np=" + std::to_string(np),
         bw[np][4096] < 0.9 * bw[np][1024],
         gbs(bw[np][4096]) + " vs " + gbs(bw[np][1024])});
  }
  return reportChecks(checks);
}
