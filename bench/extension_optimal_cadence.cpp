// Extension: what the I/O strategies mean for fault tolerance — the
// paper's actual motivation ("when a component fails, the application in
// progress loses valuable work"). Combining each strategy's measured
// checkpoint cost with Young/Daly optimal-cadence theory at Intrepid's
// failure rates shows how rbIO converts cheap checkpoints into machine
// efficiency: checkpoint more often, lose less work, waste less I/O time.
#include <cstdio>

#include "analysis/checkpoint_interval.hpp"
#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Extension - optimal checkpoint cadence under failures",
         "Young/Daly theory driven by measured checkpoint costs at 64K.");

  constexpr int kNp = 65536;
  constexpr int kNodes = kNp / 4;
  const double nodeMtbf = 3.0 * 365 * 86400;  // 3-year per-node MTBF
  const double mtbf = analysis::systemMtbf(kNodes, nodeMtbf);
  const double restart = 180.0;  // restart + re-read of the checkpoint
  std::printf("\nsystem MTBF at %d nodes (3-year node MTBF): %.0f s "
              "(~%.1f h)\n",
              kNodes, mtbf, mtbf / 3600);

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double tc = 0;
    double interval = 0;
    double eff = 0;
  };
  std::vector<Row> rows = {
      {"1PFPP", iolib::StrategyConfig::onePfpp()},
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
  };
  std::printf("\n  %-16s | %9s | %14s | %12s\n", "strategy", "Tc",
              "opt. interval", "efficiency");
  std::vector<SimPoint> points;
  for (const auto& row : rows) points.push_back({kNp, row.cfg, {}});
  const auto results = runSims(points);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto& row = rows[i];
    const auto& r = results[i];
    // For rbIO the application-blocking cost is the writers' drain only
    // when cadence outpaces them; at the Daly optimum (minutes apart) the
    // writers always keep up, so Tc is the worker-side cost plus the
    // synchronisation to a consistent cut (one compute step's barrier).
    row.tc = row.cfg.kind == iolib::StrategyKind::kRbIo
                 ? std::max(r.workerMakespan, 0.25)
                 : r.makespan;
    row.interval = analysis::dalyInterval(row.tc, mtbf);
    row.eff = analysis::efficiency(row.interval, row.tc, restart, mtbf);
    std::printf("  %-16s | %7.1f s | %10.0f s | %10.1f%%\n", row.name,
                row.tc, row.interval, 100 * row.eff);
  }

  const double gained = 100 * (rows[2].eff - rows[0].eff);
  std::printf("\nrbIO recovers %.1f percentage points of the machine "
              "relative to 1PFPP;\nover a year of Intrepid time that is "
              "~%.0f node-years of compute.\n",
              gained, gained / 100.0 * kNodes);

  std::vector<Check> checks;
  checks.push_back({"1PFPP's cost forces hour-scale checkpoint intervals",
                    rows[0].interval > 3600,
                    std::to_string(rows[0].interval) + " s"});
  checks.push_back({"rbIO checkpoints can run minutes apart",
                    rows[2].interval < 600,
                    std::to_string(rows[2].interval) + " s"});
  checks.push_back({"rbIO yields the best machine efficiency",
                    rows[2].eff > rows[1].eff && rows[1].eff > rows[0].eff,
                    "ordering holds"});
  checks.push_back({"the efficiency gap vs 1PFPP is material (>5 points)",
                    rows[2].eff - rows[0].eff > 0.05,
                    std::to_string(gained) + " points"});
  return reportChecks(checks);
}
