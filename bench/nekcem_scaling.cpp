// Section III-A: NekCEM's compute performance. Two parts:
//  1. the calibrated at-scale performance model against the paper's
//     published anchors (0.13 s/step at 131K ranks; 75% strong-scaling
//     efficiency), and
//  2. the real mini SEDG solver running on the host: spectral convergence
//     and per-step cost scaling with (N+1)^4-ish tensor work.
#include <cstdio>

#include "common.hpp"
#include "nekcem/maxwell.hpp"
#include "nekcem/perf_model.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Section III-A - NekCEM compute performance",
         "Performance-model anchors plus the real mini solver.");

  nekcem::PerfModel model;
  std::printf("\n== at-scale model ==\n");
  const double anchor = model.stepSeconds(273000, 15, 131072);
  std::printf("E=273K N=15 P=131072: %.3f s/step (paper: ~0.13 s)\n", anchor);
  const double eff = model.efficiency(8530, 131072, 68250, 16384);
  std::printf("efficiency at n/P=8530 vs base n/P=68250: %.0f%% "
              "(paper: 75%%)\n",
              eff * 100);
  std::printf("weak-scaling checkpoint-run step (n/P=17000): %.3f s\n",
              model.weakScalingStepSeconds());
  for (int np : {16384, 32768, 65536})
    std::printf("  (E,P)=(%3dK,%dK): n=%.0fM points, t_step %.3f s\n",
                68 * (np / 16384), np / 1024,
                68.0 * (np / 16384) * 4096 / 1e6,
                model.stepSeconds(static_cast<std::uint64_t>(68000) *
                                      static_cast<std::uint64_t>(np / 16384),
                                  15, np));

  std::printf("\n== real mini solver (host) ==\n");
  struct Row {
    int order;
    double error;
    double secondsPerStep;
    std::size_t points;
  };
  std::vector<Row> rows;
  for (int order : {2, 4, 6, 8}) {
    nekcem::BoxMesh mesh(2, 2, 2, 1, 1, 1, nekcem::Boundary::kPeriodic);
    nekcem::MaxwellSolver solver(mesh, order);
    auto wave = nekcem::planeWaveX(1.0);
    solver.setSolution(wave, 0.0);
    const double dt = 0.5 * solver.stableDt();
    const int steps = static_cast<int>(0.05 / dt) + 1;
    const WallTimer timer;
    solver.run(steps, dt);
    const double wall = timer.seconds();
    rows.push_back({order, solver.maxError(wave), wall / steps,
                    solver.gridPoints()});
    std::printf("  N=%d: %7zu points, max error %.2e\n", order,
                solver.gridPoints(), solver.maxError(wave));
    std::fflush(stdout);
    // Host wall time differs run to run, so it stays off stdout, which
    // must be byte-stable like every other bench's.
    std::fprintf(stderr, "  N=%d: %.3f ms/step (host)\n", order,
                 1e3 * wall / steps);
  }

  std::vector<Check> checks;
  checks.push_back({"model hits the 0.13 s/step anchor",
                    std::abs(anchor - 0.13) < 0.01,
                    std::to_string(anchor) + " s"});
  checks.push_back({"model reproduces the 75% efficiency claim",
                    std::abs(eff - 0.75) < 0.02,
                    std::to_string(eff * 100) + "%"});
  checks.push_back({"weak scaling: equal n/P gives equal step time",
                    model.stepSeconds(17000, 15) ==
                        model.weakScalingStepSeconds(),
                    "scale-invariant"});
  checks.push_back({"solver shows spectral convergence (error N=8 << N=4)",
                    rows[3].error < rows[1].error * 1e-2,
                    std::to_string(rows[3].error) + " vs " +
                        std::to_string(rows[1].error)});
  checks.push_back({"solver cost grows with order",
                    rows[3].secondsPerStep > rows[0].secondsPerStep,
                    "N=8 slower than N=2 per step"});
  return reportChecks(checks);
}
