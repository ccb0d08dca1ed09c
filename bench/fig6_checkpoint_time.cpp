// Figure 6: overall wall time per checkpointing step (log scale) for the
// five I/O approaches at 16K/32K/64K processors.
#include <cstdio>
#include <map>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Figure 6 - overall time per checkpointing step",
         "Seconds per coordinated checkpoint; log-scaled bars. The paper's "
         "headline: ~100x reduction vs 1PFPP.");

  std::map<std::string, std::map<int, double>> t;
  for (const auto& [np, runs] : runPaperGrid({16384, 32768, 65536})) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (const auto& [name, r] : runs) {
      t[name][np] = r.makespan;
      bars.push_back({name, r.makespan});
      std::printf("  %-20s %10.2f s\n", name.c_str(), r.makespan);
    }
    std::printf("%s", analysis::barChart(bars, "s", 52, /*logScale=*/true).c_str());
  }

  auto at = [&](const char* name, int np) { return t.at(name).at(np); };
  std::vector<Check> checks;
  for (int np : {32768, 65536}) {
    const double ratio = at("1PFPP", np) / at("rbIO, 64:1, nf=ng", np);
    checks.push_back(
        {"~100x improvement over 1PFPP at np=" + std::to_string(np),
         ratio > 50 && ratio < 500,
         "measured " + std::to_string(ratio) + "x"});
  }
  // "The relatively flat time bars for rbIO" - weak scaling holds: time
  // grows far slower than the 4x data growth from 16K to 64K.
  const double rbGrowth =
      at("rbIO, 64:1, nf=ng", 65536) / at("rbIO, 64:1, nf=ng", 16384);
  checks.push_back({"rbIO nf=ng time stays relatively flat 16K->64K",
                    rbGrowth < 2.5,
                    "grew " + std::to_string(rbGrowth) + "x for 4x data"});
  const double pfppGrowth = at("1PFPP", 65536) / at("1PFPP", 16384);
  checks.push_back({"1PFPP time balloons with scale", pfppGrowth > 3.0,
                    "grew " + std::to_string(pfppGrowth) + "x"});
  checks.push_back({"1PFPP exceeds 100 s per checkpoint at 16K+",
                    at("1PFPP", 16384) > 100,
                    secs(at("1PFPP", 16384))});
  return reportChecks(checks);
}
