// perf_compare: gate simulator performance against a committed baseline.
//
// Reads two --perf-json reports (emitted by the figure benches) and fails
// if the current run regressed beyond a tolerance:
//
//   perf_compare baseline.json current.json [--tolerance 0.15] [--no-wall]
//   perf_compare serial.json parallel.json --min-speedup 3
//
// Run records carry a "threads" field (records from before the field exist
// count as threads=1). The default mode totals the runs per thread count
// and compares each thread group present in both reports — a baseline
// holding serial and 8-thread entries gates a serial-only current run on
// just the serial group. Two independent gates per group:
//
//   events  the total simulated event count. For a fixed seed the simulator
//           is deterministic, so ANY change here is a real change in the
//           amount of work the simulation performs (an accidental extra
//           event per message, a lost batching optimisation, ...). Machine
//           independent — safe to enforce in CI. Events may also not move
//           by more than the tolerance in either direction without the
//           baseline being regenerated.
//
//   wall    total wall-clock seconds, compared only upward (slower). Wall
//           time depends on the host, so CI passes --no-wall and only
//           developers' local runs (same machine as their baseline) gate
//           on it.
//
// --min-speedup X switches to the parallel-scaling gate: both reports must
// describe the same workload (events within tolerance), and the second
// file's total wall time must be at least X times smaller than the first's.
// Both runs come from the same machine/job, so wall is meaningful here.
//
// Exit code: 0 pass, 1 regression, 2 usage/parse error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/cli.hpp"

namespace {

struct GroupTotals {
  double wallSeconds = 0.0;
  double events = 0.0;
};

struct PerfReport {
  /// Totals per "threads" value of the run records.
  std::map<unsigned, GroupTotals> groups;
  bool ok = false;

  GroupTotals merged() const {
    GroupTotals t;
    for (const auto& [threads, g] : groups) {
      t.wallSeconds += g.wallSeconds;
      t.events += g.events;
    }
    return t;
  }
};

double fieldAfter(const std::string& text, std::size_t from, std::size_t end,
                  const char* name) {
  const auto pos = text.find(name, from);
  if (pos == std::string::npos || pos >= end) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// Minimal extraction: one record per "label" occurrence, fields read up to
/// the record's closing brace. The reports are machine-written by
/// bench/common.cpp, so a full JSON parser is not warranted. Reports with
/// no parseable run records fall back to the "total" object (hand-written
/// fixtures, truncated files).
PerfReport readReport(const std::string& path) {
  PerfReport r;
  std::ifstream in(path);
  if (!in) return r;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  for (auto pos = text.find("\"label\""); pos != std::string::npos;
       pos = text.find("\"label\"", pos + 1)) {
    const auto end = text.find('}', pos);
    if (end == std::string::npos) break;
    const double wall = fieldAfter(text, pos, end, "\"wall_seconds\"");
    const double events = fieldAfter(text, pos, end, "\"events\"");
    if (wall < 0.0 || events < 0.0) continue;
    const double threads = fieldAfter(text, pos, end, "\"threads\"");
    GroupTotals& g =
        r.groups[threads >= 1.0 ? static_cast<unsigned>(threads) : 1u];
    g.wallSeconds += wall;
    g.events += events;
    r.ok = true;
  }
  if (!r.ok) {
    const auto totalPos = text.find("\"total\"");
    if (totalPos == std::string::npos) return r;
    const double wall =
        fieldAfter(text, totalPos, text.size(), "\"wall_seconds\"");
    const double events = fieldAfter(text, totalPos, text.size(), "\"events\"");
    if (wall < 0.0 || events < 0.0) return r;
    r.groups[1] = GroupTotals{wall, events};
    r.ok = true;
  }
  return r;
}

std::string groupTag(unsigned threads) {
  return " [threads=" + std::to_string(threads) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using bgckpt::obs::cli::Flag;
  using bgckpt::obs::cli::Kind;
  double tolerance = 0.15;
  double minSpeedup = 0.0;
  bool noWall = false;
  bgckpt::obs::cli::Parser cli(
      bgckpt::obs::cli::programName(argv[0]),
      {"BASELINE.json CURRENT.json [flags]"},
      {Flag("--tolerance", Kind::kNonNegative, &tolerance,
            "largest allowed relative drift of the events (either way) and "
            "of the wall time (upward)",
            bgckpt::obs::cli::Form::kBoth, "FRAC"),
       Flag("--no-wall", Kind::kNone, &noWall,
            "skip the wall-time gate (baseline from a different machine)"),
       Flag("--min-speedup", Kind::kNonNegative, &minSpeedup,
            "parallel-scaling gate: CURRENT's total wall time must be at "
            "least X times smaller than BASELINE's, for the same events "
            "(0 = off)")});
  std::vector<std::string> paths;
  cli.parseOrExit(argc, argv, &paths);
  if (paths.size() != 2) return cli.usageError("expected two reports");
  const char* baselinePath = paths[0].c_str();
  const char* currentPath = paths[1].c_str();
  const bool checkWall = !noWall;

  const PerfReport base = readReport(baselinePath);
  const PerfReport cur = readReport(currentPath);
  if (!base.ok) {
    std::fprintf(stderr, "perf_compare: cannot read run records from %s\n",
                 baselinePath);
    return 2;
  }
  if (!cur.ok) {
    std::fprintf(stderr, "perf_compare: cannot read run records from %s\n",
                 currentPath);
    return 2;
  }

  int failures = 0;

  if (minSpeedup > 0.0) {
    // Parallel-scaling mode: file 1 is the serial reference, file 2 the
    // parallel run of the same workload.
    const GroupTotals serial = base.merged();
    const GroupTotals parallel = cur.merged();
    if (serial.events > 0.0) {
      const double drift = (parallel.events - serial.events) / serial.events;
      const bool pass = std::fabs(drift) <= tolerance;
      std::printf("PERF CHECK [%s]: events %.0f -> %.0f (%+.1f%%; parallel "
                  "run must do the same work)\n",
                  pass ? "PASS" : "FAIL", serial.events, parallel.events,
                  drift * 100.0);
      if (!pass) ++failures;
    }
    const double speedup = parallel.wallSeconds > 0.0
                               ? serial.wallSeconds / parallel.wallSeconds
                               : 0.0;
    const bool pass = speedup >= minSpeedup;
    std::printf("PERF CHECK [%s]: speedup %.2fx (wall %.2fs -> %.2fs, "
                "required >= %.2fx)\n",
                pass ? "PASS" : "FAIL", speedup, serial.wallSeconds,
                parallel.wallSeconds, minSpeedup);
    if (!pass) ++failures;
    return failures == 0 ? 0 : 1;
  }

  int compared = 0;
  for (const auto& [threads, b] : base.groups) {
    const auto it = cur.groups.find(threads);
    if (it == cur.groups.end()) {
      std::printf("PERF CHECK [SKIP]: no%s runs in current report\n",
                  groupTag(threads).c_str());
      continue;
    }
    const GroupTotals& c = it->second;
    ++compared;
    const std::string tag = base.groups.size() > 1 ? groupTag(threads) : "";

    if (b.events > 0.0) {
      const double drift = (c.events - b.events) / b.events;
      const bool pass = std::fabs(drift) <= tolerance;
      std::printf("PERF CHECK [%s]: events %.0f -> %.0f (%+.1f%%, tolerance "
                  "+/-%.0f%%)%s\n",
                  pass ? "PASS" : "FAIL", b.events, c.events, drift * 100.0,
                  tolerance * 100.0, tag.c_str());
      if (!pass) ++failures;
    }

    if (checkWall && b.wallSeconds > 0.0) {
      const double slowdown = (c.wallSeconds - b.wallSeconds) / b.wallSeconds;
      const bool pass = slowdown <= tolerance;
      std::printf("PERF CHECK [%s]: wall %.2fs -> %.2fs (%+.1f%%, tolerance "
                  "+%.0f%%)%s\n",
                  pass ? "PASS" : "FAIL", b.wallSeconds, c.wallSeconds,
                  slowdown * 100.0, tolerance * 100.0, tag.c_str());
      if (!pass) ++failures;
    }
  }
  if (!checkWall) {
    std::printf("PERF CHECK [SKIP]: wall-clock (--no-wall: baseline from a "
                "different machine)\n");
  }
  if (compared == 0) {
    std::fprintf(stderr, "perf_compare: no thread group present in both "
                         "reports\n");
    return 2;
  }

  return failures == 0 ? 0 : 1;
}
