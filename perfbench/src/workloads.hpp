// The benchmark's workloads, their correctness checks and their metrics.
//
//   shared-file  coIO nf=1 at 16K and 32K ranks and rbIO 64:1 nf=1 at 32K:
//                every rank's bytes funnel into one GPFS file, so token
//                revocations, two-phase rounds and collectives dominate.
//                Each checkpoint is read back by every rank (kDirect).
//   many-files   1PFPP at 16K, coIO 64:1 and rbIO 64:1 nf=ng at 32K, each
//                followed by a restart: metadata creates, storage streams,
//                ION forwarding, torus point-to-point and the read path.
//   host-ckpt    real files: np=4 ranks write -> verify -> read -> compare
//                under each host strategy; real bytes, CRCs and syscalls.
//
// Simulated points run one at a time on one thread, through public APIs
// only (iolib::SimStack, runCheckpoint, runRestart, hostio, iofmt).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hostio/host_checkpoint.hpp"
#include "iolib/restart.hpp"
#include "iolib/spec.hpp"
#include "layer_clock.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kSharedFile, kManyFiles, kHostCkpt };

const char* workloadName(Workload w);
/// False when `name` names no workload.
bool parseWorkload(std::string_view name, Workload* out);

/// The seed the simulator uses by default (SimStackOptions::seed).
inline constexpr std::uint64_t kDefaultSeed = 2011;

struct Options {
  Workload workload = Workload::kSharedFile;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch space for host checkpoints and the span log.
  std::string workDir = ".bench_build/perfbench/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines (exact counts, the module table) printed before
  /// the result line.
  std::vector<std::string> notes;
};

Report runWorkload(const Options& opt);

// ---- Simulated points ------------------------------------------------

struct SimPoint {
  std::string label;
  int np = 0;
  bgckpt::iolib::StrategyConfig cfg;
  bgckpt::iolib::RestartConfig restart;
  /// Fig. 5 bandwidth at this point in GB/s (0 = the figure has none).
  double paperGbs = 0;
};

std::vector<SimPoint> simPoints(Workload w);

/// Exact simulated results of one point; a speed-only change keeps them.
struct PointCounts {
  std::uint64_t events = 0;         ///< checkpoint events
  std::uint64_t restartEvents = 0;
  std::uint64_t revocations = 0;
  double makespan = 0;              ///< simulated seconds
  double restartMakespan = 0;
  bool operator==(const PointCounts&) const = default;
};

struct PointRun {
  double ckptS = 0;   ///< host seconds inside runCheckpoint
  double restartS = 0;
  PointCounts counts;
  double simGbs = 0;  ///< simulated checkpoint bandwidth
  int operations = 0;
  std::vector<std::string> errors;  ///< one per failed operation
  /// Per-layer numbers by metric name (counts, simulated seconds).
  std::map<std::string, double> layer;
  // With Probe::kLayerClock only:
  ModuleTimes ckptModules;  ///< host time per module inside runCheckpoint
  ModuleTimes modules;      ///< the same over runCheckpoint + runRestart
  std::vector<LayerClock::LabelStat> labels;
};

/// What rides along on a point's stack. The traced run uses each in passes
/// of its own, so the attribution sink's cost never lands in the module
/// times.
enum class Probe {
  kNone,
  kLayerClock,   ///< host time per module (ModuleTimes, labels)
  kAttribution,  ///< simulated blocked time per phase (`layer` *_sim_s)
};

/// Build a stack for `p`, checkpoint, check, restart, check.
PointRun runSimPoint(const SimPoint& p, std::uint64_t seed, SpanLog& log,
                     Probe probe);

// ---- Host checkpoints ------------------------------------------------

inline constexpr int kHostRanks = 4;

/// np=kHostRanks ranks of seeded NekCEM-shaped field blocks.
std::vector<bgckpt::hostio::HostRankData> hostPayload(
    const bgckpt::hostio::HostSpec& spec, std::uint64_t seed);

/// Verify, read back and byte-compare the checkpoint of `spec`. Returns ""
/// when it matches `data`, else what was wrong; never throws.
std::string checkHostCheckpoint(
    const bgckpt::hostio::HostSpec& spec,
    const std::vector<bgckpt::hostio::HostRankData>& data, SpanLog& log,
    double* verifyS, double* readS);

}  // namespace perfbench
