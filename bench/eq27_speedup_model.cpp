// Equations (2)-(7): the blocked-processor-time speedup of rbIO over coIO.
// We evaluate the paper's analytical chain with our measured bandwidths and
// sweep lambda (the fraction of writer time that blocks workers).
#include <cstdio>

#include "analysis/models.hpp"
#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Equations (2)-(7) - rbIO over coIO blocked-time speedup",
         "Speedup ~ (np/ng) * BW_rbIO/BW_coIO as lambda -> 0.");

  constexpr int kNp = 65536;
  const auto results =
      runSims({{kNp, iolib::StrategyConfig::coIo(kNp / 64), {}},
               {kNp, iolib::StrategyConfig::rbIo(64, true), {}}});
  const auto& co = results[0];
  const auto& rb = results[1];

  analysis::SpeedupParams p;
  p.np = kNp;
  p.ng = kNp / 64.0;
  p.fileBytes = static_cast<double>(rb.logicalBytes);
  p.bwCoIo = co.bandwidth;
  p.bwRbIo = rb.bandwidth;
  p.bwPerceived = rb.perceivedBandwidth;
  std::printf("\nmeasured inputs at np=64K: BW_coIO=%s BW_rbIO=%s BW_p=%.0f TB/s\n",
              gbs(p.bwCoIo).c_str(), gbs(p.bwRbIo).c_str(),
              p.bwPerceived / 1e12);

  std::printf("\n  %-8s | %-12s | %-12s | %-12s\n", "lambda", "exact (2)",
              "approx (6)", "limit (7)");
  for (double lambda : {0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0}) {
    p.lambda = lambda;
    std::printf("  %-8.3f | %12.1f | %12.1f | %12.1f\n", lambda,
                analysis::speedupExact(p), analysis::speedupApprox(p),
                analysis::speedupLimit(p));
  }

  p.lambda = 0.0;
  const double exact0 = analysis::speedupExact(p);
  const double limit = analysis::speedupLimit(p);

  std::vector<Check> checks;
  checks.push_back(
      {"lambda->0 speedup approaches the (np/ng)*(BW ratio) limit",
       std::abs(exact0 - limit) / limit < 0.05,
       std::to_string(exact0) + " vs " + std::to_string(limit)});
  checks.push_back(
      {"speedup is tens-to-hundreds (the paper argues ~60x; >=30x even in "
       "its worst case)",
       exact0 > 30, std::to_string(exact0) + "x"});
  // Worst case of the paper: BW_rbIO = BW_coIO / 2 -> half of np/ng.
  analysis::SpeedupParams worst = p;
  worst.bwRbIo = worst.bwCoIo / 2;
  const double worstCase = analysis::speedupApprox(worst);
  checks.push_back({"worst case (half bandwidth) still ~np/(2*ng) = 32x",
                    worstCase > 28 && worstCase < 36,
                    std::to_string(worstCase) + "x"});
  p.lambda = 1.0;
  checks.push_back(
      {"lambda=1 (workers fully blocked) collapses the speedup",
       analysis::speedupExact(p) < 3.0,
       std::to_string(analysis::speedupExact(p)) + "x"});
  return reportChecks(checks);
}
