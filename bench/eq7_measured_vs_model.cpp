// Equation (7), closed loop: the paper's blocked-time speedup claim checked
// against *measured* blocked processor time, not just the analytical chain.
//
// eq27_speedup_model evaluates Eqs. (2)-(7) with measured bandwidths; this
// harness goes one step further and measures the left-hand side too. The
// blocked-time attribution sink (obs/attr.hpp) partitions every rank's
// simulated time into exclusive phases, so "processor-seconds blocked by
// I/O" is simply the non-compute total — summed straight from the trace
// stream, with no knowledge of Eqs. (3)/(4). If the simulator and the
// paper's model describe the same physics, the two must agree:
//
//   measured speedup  =  blocked_coIO / blocked_rbIO   (from attribution)
//   model   speedup   =  Eq. (2) exact, and its Eq. (7) limit
//                        (np/ng) * BW_rbIO/BW_coIO     (from bandwidths)
#include <cmath>
#include <cstdio>

#include "analysis/models.hpp"
#include "common.hpp"
#include "obs/attr.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

namespace {

struct MeasuredRun {
  iolib::CheckpointResult result;
  obs::AttributionEngine::Report attr;
};

/// Run one checkpoint with an attribution sink attached and hand back both
/// the classic result and the finalized per-rank phase partition.
MeasuredRun runMeasured(int np, const iolib::StrategyConfig& cfg) {
  iolib::SimStackOptions opt;
  opt.simcheck = simCheckMode();
  iolib::SimStack stack(np, opt);
  attachObs(stack);
  const obs::AttributionSink& attr = stack.obs.attachAttribution();
  MeasuredRun run;
  run.result = runSim(stack, np, cfg);
  stack.obs.finalize(stack.sched.now());
  run.attr = attr.report();
  return run;
}

void printPhaseTable(const char* label,
                     const obs::AttributionEngine::Report& r) {
  std::printf("\n  %s: processor-seconds by phase (horizon %.3f s x %zu "
              "ranks)\n",
              label, r.horizon, r.ranks.size());
  for (int p = 0; p < obs::kNumPhases; ++p) {
    if (r.totals[static_cast<std::size_t>(p)] <= 0.0) continue;
    std::printf("    %-13s %14.3f\n",
                obs::phaseName(static_cast<obs::Phase>(p)),
                r.totals[static_cast<std::size_t>(p)]);
  }
  std::printf("    %-13s %14.3f\n", "blocked", r.blockedSeconds());
}

}  // namespace

int main(int argc, char** argv) {
  int np = 4096;
  bgckpt::bench::obsInit(
      argc, argv,
      {intFlag("--np", &np, "ranks to simulate: an Intrepid partition size")});
  requireIntrepidNp(np);
  banner("Equation (7) - measured blocked time vs the analytical model",
         "Attribution-measured blocked processor-seconds, coIO vs rbIO.");

  const int ng = np / 64;
  const auto co = runMeasured(np, iolib::StrategyConfig::coIo(ng));
  const auto rb = runMeasured(np, iolib::StrategyConfig::rbIo(64, true));

  printPhaseTable("coIO, np:nf=64:1", co.attr);
  printPhaseTable("rbIO, 64:1, nf=ng", rb.attr);

  // Measured side: blocked processor-seconds straight from the partition.
  const double blockedCo = co.attr.blockedSeconds();
  const double blockedRb = rb.attr.blockedSeconds();
  const double measuredSpeedup = blockedCo / blockedRb;

  // Worker-only view of rbIO: everyone except the 64:1 writers.
  double workerBlocked = 0.0;
  int workers = 0;
  for (const auto& slice : rb.attr.ranks) {
    if (slice.rank % 64 == 0) continue;
    workerBlocked += slice.blocked();
    ++workers;
  }
  const double workerFrac =
      workers > 0 ? workerBlocked / (workers * rb.attr.horizon) : 0.0;

  // Model side: Eqs. (3)/(4)/(2)/(7) fed with the measured bandwidths.
  analysis::SpeedupParams p;
  p.np = np;
  p.ng = ng;
  p.fileBytes = static_cast<double>(rb.result.logicalBytes);
  p.bwCoIo = co.result.bandwidth;
  p.bwRbIo = rb.result.bandwidth;
  p.bwPerceived = rb.result.perceivedBandwidth;
  p.lambda = 0.0;
  const double modelCo = analysis::blockedTimeCoIo(p);
  const double modelRb = analysis::blockedTimeRbIo(p);
  const double modelExact = analysis::speedupExact(p);
  const double modelLimit = analysis::speedupLimit(p);

  std::printf("\n  inputs: np=%d ng=%d S=%.2f GB BW_coIO=%s BW_rbIO=%s "
              "BW_p=%.0f TB/s\n",
              np, ng, p.fileBytes / 1e9, gbs(p.bwCoIo).c_str(),
              gbs(p.bwRbIo).c_str(), p.bwPerceived / 1e12);
  std::printf("\n  %-34s | %14s | %14s\n", "blocked processor-seconds",
              "measured", "model");
  std::printf("  %-34s | %14.1f | %14.1f  (Eq. 3)\n", "coIO", blockedCo,
              modelCo);
  std::printf("  %-34s | %14.1f | %14.1f  (Eq. 4, lambda=0)\n", "rbIO",
              blockedRb, modelRb);
  std::printf("  %-34s | %13.1fx | %13.1fx  (Eq. 2 exact)\n",
              "speedup rbIO over coIO", measuredSpeedup, modelExact);
  std::printf("  %-34s | %14s | %13.1fx  (Eq. 7 limit)\n", "", "",
              modelLimit);
  std::printf("\n  rbIO worker blocked fraction: %.4f%% of the horizon\n",
              workerFrac * 100.0);

  std::vector<Check> checks;
  const double defect =
      std::max(co.attr.partitionDefect(), rb.attr.partitionDefect());
  checks.push_back({"attribution phases partition [0, horizon] on every rank",
                    defect < 1e-9 * std::max(1.0, co.attr.horizon),
                    "max defect " + std::to_string(defect) + " s"});
  // Eq. (3) assumes every rank stays blocked for the full S/BW_coIO; with
  // nf=ng independent files the groups finish at different times, so the
  // model upper-bounds the measurement and skew accounts for the gap.
  checks.push_back(
      {"Eq. (3) upper-bounds measured coIO blocked time, within 40% slack",
       blockedCo < modelCo * 1.001 && blockedCo > 0.60 * modelCo,
       std::to_string(blockedCo) + " vs " + std::to_string(modelCo)});
  checks.push_back(
      {"measured rbIO blocked time matches Eq. (4), lambda=0, within 30%",
       std::abs(blockedRb - modelRb) / modelRb < 0.30,
       std::to_string(blockedRb) + " vs " + std::to_string(modelRb)});
  checks.push_back(
      {"measured speedup matches the Eq. (7) limit within 30%",
       std::abs(measuredSpeedup - modelLimit) / modelLimit < 0.30,
       std::to_string(measuredSpeedup) + "x vs " + std::to_string(modelLimit) +
           "x"});
  checks.push_back({"measured speedup is tens of x (paper argues ~60x at 64K)",
                    measuredSpeedup > 20.0,
                    std::to_string(measuredSpeedup) + "x"});
  checks.push_back({"rbIO workers spend <1% of the horizon blocked",
                    workerFrac < 0.01,
                    std::to_string(workerFrac * 100.0) + "%"});
  checks.push_back(
      {"coIO blocks the mean rank for most of its horizon (>60%)",
       blockedCo > 0.60 * np * co.attr.horizon,
       std::to_string(blockedCo / (np * co.attr.horizon) * 100.0) + "%"});
  return reportChecks(checks);
}
