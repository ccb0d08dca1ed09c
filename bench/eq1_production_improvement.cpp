// Equation (1): end-to-end production improvement of rbIO over 1PFPP at
// checkpoint frequency nc. With the paper's round numbers (Ratio_1pfpp ~
// 1000, Ratio_rbIO ~ 20, nc = 20) the improvement is ~25x; we also
// evaluate it with our measured ratios.
#include <cstdio>

#include "analysis/models.hpp"
#include "common.hpp"
#include "nekcem/perf_model.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Equation (1) - production time improvement, rbIO vs 1PFPP",
         "improvement = (Ratio_1pfpp + nc) / (Ratio_rbIO + nc)");

  // The paper's arithmetic.
  const double paperValue = analysis::productionImprovement(1000, 20, 20);
  std::printf("\npaper inputs (Ratio=1000 vs 20, nc=20): %.1fx  "
              "(paper: 'approximately 25x')\n",
              paperValue);

  // Our measured inputs at each scale.
  nekcem::PerfModel perf;
  const double tComp = perf.weakScalingStepSeconds();
  const std::vector<int> scales = {16384, 32768, 65536};
  std::vector<SimPoint> points;
  for (int np : scales) {
    points.push_back({np, iolib::StrategyConfig::onePfpp(), {}});
    points.push_back({np, iolib::StrategyConfig::rbIo(64, true), {}});
  }
  const auto results = runSims(points);
  std::vector<Check> checks;
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const int np = scales[s];
    const auto& pfpp = results[2 * s];
    const auto& rbio = results[2 * s + 1];
    const double ratioPfpp = pfpp.makespan / tComp;
    const double ratioRbio = rbio.writerMakespan / tComp;
    std::printf("np=%6d: Ratio_1pfpp=%7.0f  Ratio_rbIO=%5.1f  ", np,
                ratioPfpp, ratioRbio);
    for (double nc : {10.0, 20.0, 100.0}) {
      std::printf("nc=%-3.0f -> %5.1fx  ", nc,
                  analysis::productionImprovement(ratioPfpp, ratioRbio, nc));
    }
    std::printf("\n");
    const double imp =
        analysis::productionImprovement(ratioPfpp, ratioRbio, 20);
    // The paper's "approximately 25x" follows from Ratio_1pfpp ~ 1000; our
    // 1PFPP collapses harder at 64K, which can only grow the improvement.
    checks.push_back(
        {"tens-of-x improvement at nc=20, np=" + std::to_string(np) +
             " (paper: ~25x from its round-number ratios)",
         imp > 10 && imp < 300, std::to_string(imp) + "x"});
  }
  checks.push_back({"paper-arithmetic reproduction equals ~25x",
                    paperValue > 25.0 && paperValue < 26.0,
                    std::to_string(paperValue) + "x"});
  return reportChecks(checks);
}
