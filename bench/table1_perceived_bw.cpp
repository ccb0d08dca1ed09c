// Table I: perceived write performance with rbIO at 16K/32K/64K processors:
// the time an MPI_Isend takes to complete from the worker's point of view
// (in 850 MHz CPU cycles) and the corresponding "perceived bandwidth" —
// total worker data over the slowest handoff.
#include <cstdio>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Table I - perceived write performance with rbIO",
         "np | median Isend (CPU cycles) | perceived bandwidth");

  struct PaperRow {
    int np;
    double cycles;
    double tbps;
  };
  const std::vector<PaperRow> paper = {
      {16384, 10152, 251}, {32768, 11539, 442}, {65536, 9346, 1091}};

  std::vector<SimPoint> points;
  for (const auto& row : paper)
    points.push_back({row.np, iolib::StrategyConfig::rbIo(64, true), {}});
  const auto results = runSims(points);

  std::printf("\n  %8s | %22s | %24s | %s\n", "np", "Isend cycles (median)",
              "perceived BW (measured)", "paper");
  std::vector<double> measured;
  double cyclesMin = 1e18, cyclesMax = 0;
  for (std::size_t i = 0; i < paper.size(); ++i) {
    const auto& row = paper[i];
    const auto& r = results[i];
    // Median worker handoff, in cycles at the BG/P core clock.
    sim::Sample isends;
    // maxIsendSeconds only exposes the max; recover the median from the
    // per-rank times (workers' time == isend time).
    for (int rank = 0; rank < row.np; ++rank)
      if (rank % 64 != 0)
        isends.add(r.perRankTime[static_cast<std::size_t>(rank)]);
    const double cycles = isends.median() * 850e6;
    cyclesMin = std::min(cyclesMin, cycles);
    cyclesMax = std::max(cyclesMax, cycles);
    measured.push_back(r.perceivedBandwidth);
    std::printf("  %8d | %15.0f cycles | %17.0f TB/s | %.0f cyc, %.0f TB/s\n",
                row.np, cycles, r.perceivedBandwidth / 1e12, row.cycles,
                row.tbps);
  }

  std::vector<Check> checks;
  checks.push_back(
      {"perceived bandwidth in the hundreds-of-TB/s range at 16K",
       measured[0] > 100e12 && measured[0] < 600e12,
       std::to_string(measured[0] / 1e12) + " TB/s (paper: 251)"});
  checks.push_back(
      {"perceived bandwidth reaches ~PB/s at 64K",
       measured[2] > 400e12 && measured[2] < 3000e12,
       std::to_string(measured[2] / 1e12) + " TB/s (paper: 1091)"});
  checks.push_back(
      {"perceived bandwidth grows with scale (weak scaling, flat Isend)",
       measured[0] < measured[1] && measured[1] < measured[2], "16K<32K<64K"});
  checks.push_back(
      {"Isend costs ~10^4 CPU cycles (paper: 9346-11539)",
       cyclesMin > 2e3 && cyclesMax < 5e4,
       std::to_string(cyclesMin) + " .. " + std::to_string(cyclesMax)});
  const auto& r16 = results[0];
  checks.push_back(
      {"perceived dwarfs raw disk bandwidth by >10000x",
       r16.perceivedBandwidth > 1e4 * r16.bandwidth,
       std::to_string(r16.perceivedBandwidth / r16.bandwidth) + "x"});
  return reportChecks(checks);
}
