// Figure 5: write bandwidth of the five I/O approaches as a function of
// processor count, on the simulated Intrepid GPFS under normal load.
// Problem sizes (np, n, S) = (16K, 275M, ~39GB), (32K, 550M, ~78GB),
// (64K, 1.1B, ~157GB).
#include <cstdio>
#include <map>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  // --max-np N: smoke mode for slow (sanitizer) builds — run only the
  // scales up to N. Shape checks need all three scales, so they are
  // skipped; the run still exercises every approach end-to-end.
  const int maxNp = intFlag(argc, argv, "--max-np", 65536);
  banner("Figure 5 - write performance with NekCEM on Intrepid GPFS",
         "Bandwidth = total data / wall time of the slowest processor.");

  std::vector<int> scales = {16384, 32768, 65536};
  std::erase_if(scales, [maxNp](int np) { return np > maxNp; });
  if (scales.empty()) {
    std::fprintf(stderr, "--max-np %d leaves no scales to run\n", maxNp);
    return 2;
  }
  const bool smoke = scales.size() < 3;
  // Approximate values read from the published figure, for side-by-side
  // comparison (absolute agreement is not the goal; the shape is).
  const std::map<std::string, std::vector<double>> paperGbs = {
      {"1PFPP", {0.15, 0.10, 0.08}},
      {"coIO, nf=1", {4.5, 5.0, 6.0}},
      {"coIO, np:nf=64:1", {10.5, 12.5, 9.0}},
      {"rbIO, 64:1, nf=1", {4.0, 5.0, 6.5}},
      {"rbIO, 64:1, nf=ng", {9.0, 13.0, 16.0}},
  };

  std::map<std::string, std::map<int, double>> bw;  // name -> np -> GB/s
  for (const auto& [np, runs] : runPaperGrid(scales)) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (const auto& [name, r] : runs) {
      bw[name][np] = r.bandwidth;
      bars.push_back({name, r.bandwidth / 1e9});
      std::printf("  %-20s  measured %-12s  paper ~%5.2f GB/s  (makespan %s)\n",
                  name.c_str(), gbs(r.bandwidth).c_str(),
                  paperGbs.at(name)[static_cast<std::size_t>(
                      np == 16384 ? 0 : (np == 32768 ? 1 : 2))],
                  secs(r.makespan).c_str());
    }
    std::printf("%s", analysis::barChart(bars, "GB/s").c_str());
  }

  if (smoke) {
    std::printf("\n--max-np smoke run: shape checks skipped (need all three "
                "scales)\n");
    return reportChecks({});
  }

  auto at = [&](const char* name, int np) { return bw.at(name).at(np); };
  std::vector<Check> checks;
  checks.push_back(
      {"rbIO nf=ng >= coIO 64:1 at 64K (rbIO scales best)",
       at("rbIO, 64:1, nf=ng", 65536) >= at("coIO, np:nf=64:1", 65536),
       gbs(at("rbIO, 64:1, nf=ng", 65536)) + " vs " +
           gbs(at("coIO, np:nf=64:1", 65536))});
  checks.push_back({"rbIO nf=ng > 13 GB/s at 64K (paper: 'over 13 GB/s')",
                    at("rbIO, 64:1, nf=ng", 65536) > 13e9,
                    gbs(at("rbIO, 64:1, nf=ng", 65536))});
  bool tenX = true;
  for (int np : scales)
    tenX = tenX && at("rbIO, 64:1, nf=ng", np) > 10 * at("1PFPP", np) &&
           at("coIO, np:nf=64:1", np) > 10 * at("1PFPP", np);
  checks.push_back({"tuned approaches beat 1PFPP by >10x at every scale",
                    tenX, "rbIO/coIO vs 1PFPP"});
  bool splitWins = true;
  for (int np : scales)
    splitWins = splitWins && at("coIO, np:nf=64:1", np) > at("coIO, nf=1", np);
  checks.push_back(
      {"split collectives beat the single shared file (coIO 64:1 > nf=1)",
       splitWins, "all scales"});
  checks.push_back(
      {"coIO 64:1 drops at 64K (the paper's 'significant performance drop')",
       at("coIO, np:nf=64:1", 65536) < at("coIO, np:nf=64:1", 32768),
       gbs(at("coIO, np:nf=64:1", 65536)) + " vs " +
           gbs(at("coIO, np:nf=64:1", 32768)) + " at 32K"});
  bool similar = true;
  for (int np : scales) {
    const double a = at("rbIO, 64:1, nf=1", np);
    const double b = at("coIO, nf=1", np);
    similar = similar && a < 2.5 * b && b < 2.5 * a;
  }
  checks.push_back(
      {"rbIO nf=1 ~ coIO nf=1 (application two-phase does not interfere "
       "with MPI-IO two-phase)",
       similar, "within 2.5x at all scales"});
  bool rbGrows = at("rbIO, 64:1, nf=ng", 16384) <
                     at("rbIO, 64:1, nf=ng", 32768) &&
                 at("rbIO, 64:1, nf=ng", 32768) <
                     at("rbIO, 64:1, nf=ng", 65536);
  checks.push_back({"rbIO nf=ng bandwidth grows with scale", rbGrows,
                    "16K < 32K < 64K"});
  checks.push_back(
      {"rbIO nf=ng ~2x rbIO nf=1 (less file locking overhead)",
       at("rbIO, 64:1, nf=ng", 16384) > 1.5 * at("rbIO, 64:1, nf=1", 16384),
       gbs(at("rbIO, 64:1, nf=ng", 16384)) + " vs " +
           gbs(at("rbIO, 64:1, nf=1", 16384))});
  return reportChecks(checks);
}
