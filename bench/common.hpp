// Shared plumbing for the figure/table reproduction harnesses.
//
// Every harness prints:
//   1. a banner naming the paper artifact it regenerates,
//   2. the measured series (plus the paper's approximate values where the
//      text/figures state them),
//   3. an ASCII rendering,
//   4. SHAPE CHECK lines — the qualitative claims that must hold (who wins,
//      by roughly what factor, where crossovers fall). A failed check makes
//      the binary exit nonzero.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ascii.hpp"
#include "iolib/strategies.hpp"
#include "obs/cli.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::bench {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

void banner(const std::string& artifact, const std::string& description);

/// Print all checks; returns the process exit code (0 iff all pass).
int reportChecks(const std::vector<Check>& checks);

/// Format helpers.
std::string gbs(double bytesPerSecond);
std::string secs(double seconds);

/// Parse the harness command line: the threading and observability flags
/// every harness shares, plus the harness's own `benchFlags` (intFlag).
/// `--help` prints each flag with its help text and exits 0. A malformed
/// value prints `error: --flag: ...` and exits 2; an unknown argument also
/// prints the usage and exits 2. Every file-producing flag writes a
/// `<file>.manifest.json` sidecar (schema, bench, np, the flags given) that
/// trace_report validates. Every announce line goes to stderr, so figure
/// stdout depends on neither the flags nor the thread count.
void obsInit(int argc, char** argv,
             std::vector<obs::cli::Flag> benchFlags = {});

/// A harness's own integer flag for obsInit: `NAME N` or `NAME=N`, an
/// integer >= 1. `*into` holds the default and receives the value.
obs::cli::Flag intFlag(const char* name, int* into, const char* help);

/// A harness's `--np` must be an Intrepid partition size: anything else
/// prints `error: --np: ...` naming the supported sizes and exits 2.
void requireIntrepidNp(int np);

/// Wall-clock stopwatch for benchmark harnesses. Lives in bench/common on
/// purpose: srclint's wall-clock rule bans host clocks everywhere else in
/// bench/ and src/, so harness timing goes through this one allowlisted
/// type instead of ad-hoc steady_clock calls (see tools/srclint rules.cpp,
/// "wall-clock").
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Record one simulated run in the --perf-json report (no-op without the
/// flag). runSims and runSim call this automatically; harnesses that drive
/// runCheckpoint/runCampaign themselves can call it directly. The record
/// carries the --threads value.
void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events);

/// Write the --perf-json report, if requested. Returns false (and prints
/// to stderr) if the file could not be written. Called by reportChecks.
bool perfFlush();

/// The --simcheck mode requested on the command line (kAuto when absent).
sim::SimCheckMode simCheckMode();

/// Attach the requested observability sinks to a stack. runSims does this
/// for every point; harnesses that build their own SimStack (e.g. fig12)
/// call it once per stack. Each attach after the first gets a numbered path
/// suffix (".2", ".3", ...) so multi-stack harnesses emit one trace per
/// stack. No-op when no observability flag was given.
void attachObs(iolib::SimStack& stack);

/// One independent simulation point: one checkpoint of `cfg` on a fresh
/// np-rank Intrepid stack built from `stack` (paper noise conditions and
/// seed 2011 by default). runSims overrides `stack.simcheck` and
/// `stack.flightRecorderEvents` from --simcheck/--flightrec.
struct SimPoint {
  int np = 0;
  iolib::StrategyConfig cfg;
  iolib::SimStackOptions stack;
};

/// Simulate every point on the --threads workers through sim::parallelFor
/// (inline and in order at --threads=1) and return the results in point
/// order. Each point is an isolated single-threaded discrete-event run, so
/// its result does not depend on the thread count. Obs artifact ordinals
/// are reserved in point order before the fan-out, and the --perf-json
/// records are appended in point order afterwards, so stdout and every
/// perf/obs artifact are byte-identical whatever the thread count. With
/// --runtime-profile the parallelFor jobs are labelled "np=N <config>".
std::vector<iolib::CheckpointResult> runSims(
    const std::vector<SimPoint>& points);

/// Run one checkpoint on a stack the harness built and still reads after
/// the run (fs counters, attached sinks), recording it like runSims does.
iolib::CheckpointResult runSim(iolib::SimStack& stack, int np,
                               const iolib::StrategyConfig& cfg);

/// The five approaches of Figs. 5-7, in the paper's legend order.
struct Approach {
  std::string name;
  iolib::StrategyConfig cfg;
};
std::vector<Approach> paperApproaches(int np);

/// The Figs. 5-7 grid: every paperApproaches(np) point at each scale,
/// simulated with one runSims call. One entry per scale, in `scales` order;
/// each holds (approach name, result) pairs in legend order.
struct ApproachRun {
  std::string name;
  iolib::CheckpointResult result;
};
struct ScaleRuns {
  int np = 0;
  std::vector<ApproachRun> runs;
};
std::vector<ScaleRuns> runPaperGrid(const std::vector<int>& scales);

}  // namespace bgckpt::bench
