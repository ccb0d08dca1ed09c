// Figure 11: per-processor I/O time distribution for rbIO (np:ng = 64:1,
// nf = ng) on 65,536 processors. Two "lines" appear: the upper one is the
// 1,024 writers (nearly flat — good synchronisation even with independent
// MPI_File_write_at), the lower one is the 64,512 workers, whose I/O cost
// is a single nonblocking send measured in microseconds.
#include <cstdio>

#include "common.hpp"
#include "simcore/stats.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Figure 11 - I/O time distribution, rbIO nf=ng, 65,536 processors",
         "Upper line: writers; lower line: workers.");

  constexpr int kNp = 65536;
  const auto r =
      runSims({{kNp, iolib::StrategyConfig::rbIo(64, true), {}}})[0];

  sim::Sample writers, workers;
  std::vector<double> xs, ys;
  for (int rank = 0; rank < kNp; ++rank) {
    const double v = r.perRankTime[static_cast<std::size_t>(rank)];
    if (rank % 64 == 0)
      writers.add(v);
    else
      workers.add(v);
    if (rank % 64 == 0 || rank % 97 == 0) {
      xs.push_back(rank);
      ys.push_back(v);
    }
  }

  std::printf("ranks: %d   makespan: %s   bandwidth: %s\n", kNp,
              secs(r.makespan).c_str(), gbs(r.bandwidth).c_str());
  std::printf("writers (%zu): min %.2f s  median %.2f s  max %.2f s\n",
              writers.size(), writers.min(), writers.median(), writers.max());
  std::printf("workers (%zu): min %.1f us  median %.1f us  max %.1f us\n",
              workers.size(), workers.min() * 1e6, workers.median() * 1e6,
              workers.max() * 1e6);
  std::printf("%s", analysis::scatter(xs, ys, 72, 20, "processor rank",
                                      "I/O time [s]").c_str());

  std::vector<Check> checks;
  checks.push_back({"workers block for microseconds (lower line at ~0)",
                    workers.max() < 1e-3,
                    std::to_string(workers.max() * 1e6) + " us max"});
  checks.push_back({"writers take seconds (upper line)",
                    writers.median() > 1.0, secs(writers.median())});
  checks.push_back({"writer line is almost flat (good synchronisation)",
                    writers.quantile(0.95) < 1.5 * writers.median(),
                    "p95 " + secs(writers.quantile(0.95)) + " vs median " +
                        secs(writers.median())});
  checks.push_back({"four orders of magnitude between the two lines",
                    writers.median() > 1e4 * workers.median(),
                    "writer/worker = " +
                        std::to_string(writers.median() / workers.median())});
  return reportChecks(checks);
}
