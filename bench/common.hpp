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

/// Parse observability flags from the harness command line:
///   --trace <file>     stream a Chrome trace_event JSON there (open the
///                      file in Perfetto / chrome://tracing), plus a
///                      <file>.jsonl event log for tools/trace_report
///   --metrics <file>   export the metrics registry as JSON there, plus a
///                      CSV twin (.json suffix swapped for .csv)
///   --perf-json <file> write a machine-readable perf record there: one
///                      entry per simulated run (wall seconds, events
///                      processed, events/sec) plus totals. Feed two of
///                      these to tools/perf_compare to gate regressions.
///   --simcheck[=MODE]  enable the runtime invariant checker on every
///                      runSims point (MODE: on [default], warn, off; see
///                      simcore/simcheck.hpp). Harnesses that build their
///                      own SimStack pass simCheckMode() or honour the
///                      SIM_CHECK environment variable.
///   --attr <file>      export per-rank blocked-time attribution there as
///                      JSON, plus a CSV twin (obs/attr.hpp). Announce
///                      lines go to stderr, so figure stdout is unchanged.
///   --critpath <file>  record the causal event graph and write the
///                      critical-path report there as JSON (obs/critpath.hpp)
///   --telemetry[=DT] <file>
///                      sample every registered telemetry probe into
///                      DT-second buckets (default obs::Telemetry::
///                      kDefaultDt) and write the timeseries there as JSON,
///                      plus a CSV twin. Feed the JSON to `trace_report
///                      --timeline` for utilization heatmaps and
///                      server-imbalance stats. Announce lines go to
///                      stderr; figure stdout is byte-identical.
///   --optrace[=RATE] [file]
///                      per-request causal tracing (obs/optrace.hpp): every
///                      checkpoint write op carries a span context from the
///                      issuing rank down to the DDN commit. RATE > 1 keeps
///                      every RATE-th waterfall, RATE in (0,1] is a sampling
///                      probability (default 1 in 64; the slowest requests
///                      are always kept). With a file, the hop-percentile
///                      tables, lineage trees, and tail waterfalls are
///                      exported as JSON for `trace_report --waterfall`.
///                      Announce lines go to stderr; figure stdout is
///                      byte-identical with tracing on.
///   --obs-dir DIR      derive every observability artifact path not given
///                      explicitly (trace/metrics/attr/critpath/telemetry/
///                      optrace + their manifests) as DIR/<artifact>.json,
///                      creating DIR first. Explicit flags win.
///   --flightrec[=N]    keep a flight recorder of the last N (default 256)
///                      trace events per layer per stack; SimChecker
///                      violations and failed SHAPE CHECKs dump it to stderr
///   --runtime-profile[=FILE]
///                      real-time execution profile of the point-level
///                      parallelism (obs/runtimeprof.hpp): per-parallelFor-
///                      job walls with point labels and per-point wall
///                      records. FILE defaults to runtimeprof.json; written
///                      at perfFlush with a manifest sidecar. Feed it to
///                      `trace_report --runtime`. Wall-clock by nature, so
///                      the JSON is NOT byte-stable across runs — it is
///                      deliberately not derived by --obs-dir and excluded
///                      from artifact identity comparisons. Figure stdout
///                      stays byte-identical with profiling on (announce
///                      lines go to stderr).
///   --threads=N        simulate the points a harness hands to runSims on N
///                      worker threads (default 1 = the serial reference;
///                      `--threads N` also works). Results, stdout, and
///                      every perf/obs artifact are byte-identical to the
///                      serial run (see runSims).
/// Every file-producing flag also writes a `<file>.manifest.json` sidecar
/// (schema version, bench name, np, flag set) that tools/trace_report
/// validates before parsing. Every announce line goes to stderr, so figure
/// stdout depends on neither the flags nor the thread count. A malformed
/// flag value (`--threads=0`, `--simcheck=bogus`, `--flightrec=abc`, ...)
/// prints `error: --flag: ...` and exits 2. Unknown arguments are ignored
/// so harnesses stay forward-compatible.
void obsInit(int argc, char** argv);

/// Value of a harness-specific integer flag given as `NAME N` or `NAME=N`;
/// `fallback` when the flag is absent. The value must be plain decimal
/// digits spelling an integer >= 1 (the same rule as --threads); anything
/// else, including a trailing NAME with no value, prints
/// `error: NAME: ...` and exits 2.
int intFlag(int argc, char** argv, const char* name, int fallback);

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
