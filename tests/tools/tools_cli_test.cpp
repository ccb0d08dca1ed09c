// End-to-end coverage for the offline CLIs (tools/trace_report,
// tools/perf_compare, tools/sweep) against small committed fixtures: exit
// codes and the key output lines each mode must produce. The binaries and
// fixture directory come in as compile definitions from CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#ifndef TOOLS_BIN_DIR
#error "TOOLS_BIN_DIR must be defined by the build"
#endif
#ifndef TOOLS_FIXTURE_DIR
#error "TOOLS_FIXTURE_DIR must be defined by the build"
#endif
#ifndef BENCH_BIN_DIR
#error "BENCH_BIN_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string traceReport() {
  return std::string(TOOLS_BIN_DIR) + "/trace_report";
}
std::string perfCompare() {
  return std::string(TOOLS_BIN_DIR) + "/perf_compare";
}
std::string fixture(const char* name) {
  return std::string(TOOLS_FIXTURE_DIR) + "/" + name;
}
std::string sweepBin() { return std::string(TOOLS_BIN_DIR) + "/sweep"; }

/// Fresh scratch ledger directory per test, removed on destruction.
struct TempLedger {
  std::filesystem::path path;
  TempLedger() {
    path = std::filesystem::temp_directory_path() /
           ("tools_cli_ledger_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
  }
  ~TempLedger() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(TraceReportCli, SummaryModeReportsLayersAndBalance) {
  const auto r = run(traceReport() + " " + fixture("trace_coio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("span balance: OK"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("io"), std::string::npos);
  EXPECT_NE(r.output.find("mpi"), std::string::npos);
  EXPECT_NE(r.output.find("horizon 1.800 s"), std::string::npos) << r.output;
}

TEST(TraceReportCli, AttrModePartitionsPhases) {
  const auto r = run(traceReport() + " --attr " + fixture("trace_coio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("blocked-time attribution"), std::string::npos);
  // rank0 collective 0.6 minus the 0.1 token wait, plus rank1's 0.7.
  EXPECT_NE(r.output.find("barrier"), std::string::npos);
  EXPECT_NE(r.output.find("1.200"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("token_wait"), std::string::npos);
  EXPECT_NE(r.output.find("blocked"), std::string::npos);
}

TEST(TraceReportCli, AttrDiffComparesTwoRuns) {
  const auto r = run(traceReport() + " --attr " + fixture("trace_coio.jsonl") +
                     " --diff " + fixture("trace_rbio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos);
  EXPECT_NE(r.output.find("A-B"), std::string::npos);
  EXPECT_NE(r.output.find("blocked-time ratio A/B"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("handoff_send"), std::string::npos);
}

TEST(TraceReportCli, CritPathModeRendersBuckets) {
  const auto r =
      run(traceReport() + " --critpath " + fixture("critpath_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("critical path"), std::string::npos);
  EXPECT_NE(r.output.find("path 1.800 s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("delay"), std::string::npos);
  EXPECT_NE(r.output.find("fabric.cpp"), std::string::npos);
}

TEST(TraceReportCli, CritPathDiffComparesTwoRuns) {
  const auto r =
      run(traceReport() + " --critpath " + fixture("critpath_coio.json") +
          " --diff " + fixture("critpath_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("A seconds"), std::string::npos);
  EXPECT_NE(r.output.find("fabric.cpp"), std::string::npos);
  EXPECT_NE(r.output.find("resource_grant"), std::string::npos) << r.output;
}

TEST(TraceReportCli, ErrorsAreUsageExitCode) {
  EXPECT_EQ(run(traceReport()).exitCode, 2);
  EXPECT_EQ(run(traceReport() + " --attr /nonexistent.jsonl").exitCode, 2);
  // --diff only makes sense with --attr/--critpath.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") +
                " --diff " + fixture("trace_rbio.jsonl"))
                .exitCode,
            2);
  // One input per run: a second one used to be reported on silently alone.
  for (const char* mode : {"", " --attr"}) {
    const auto r = run(traceReport() + mode + " " +
                       fixture("trace_coio.jsonl") + " " +
                       fixture("trace_rbio.jsonl"));
    EXPECT_EQ(r.exitCode, 2) << mode << "\n" << r.output;
    EXPECT_NE(r.output.find("error: expected one input file"),
              std::string::npos)
        << r.output;
  }
}

TEST(TraceReportCli, TimelineModeRendersHeatmapAndImbalance) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_1pfpp.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("telemetry timeline"), std::string::npos);
  EXPECT_NE(r.output.find("horizon 2.000 s, 4 buckets of 0.5 s, 2 series"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("stor.server.bytes (rate, 4 instances"),
            std::string::npos)
      << r.output;
  // Loads [6,2,1,1]: Jain = 100/168, skew = 6/2.5, share = 60%.
  EXPECT_NE(r.output.find("jain=0.595"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("max/mean=2.40"), std::string::npos);
  EXPECT_NE(r.output.find("max-share=60.0%"), std::string::npos);
  EXPECT_NE(r.output.find("busiest #0"), std::string::npos);
  // Instance 0's row saturates the shade scale somewhere.
  EXPECT_NE(r.output.find("@"), std::string::npos) << r.output;
}

TEST(TraceReportCli, TimelineDiffComparesImbalance) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_1pfpp.json") +
          " --diff " + fixture("telemetry_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos);
  EXPECT_NE(r.output.find("A jain"), std::string::npos);
  EXPECT_NE(r.output.find("0.595"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.962"), std::string::npos) << r.output;
}

TEST(TraceReportCli, TimelineRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(TraceReportCli, TimelineRejectsWrongManifestVersion) {
  const auto r = run(traceReport() + " --timeline " +
                     fixture("telemetry_badmanifest.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("manifest schema"), std::string::npos) << r.output;
}

TEST(TraceReportCli, WaterfallModeRendersHopTableAndLineage) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("op trace:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("66560 requests minted, 66560 completed "
                          "(0 unfinished)"),
            std::string::npos)
      << r.output;
  // fig11 at np=65536, nf=1024: every writer aggregates exactly 64 blocks.
  EXPECT_NE(r.output.find("fan-in min/p50/max = 64/64/64"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("server_queue"), std::string::npos);
  EXPECT_NE(r.output.find("ddn_commit"), std::string::npos);
  EXPECT_NE(r.output.find("tail waterfalls"), std::string::npos) << r.output;
}

// Acceptance: the hop table must localize >= 80% of the commit path's p99
// end-to-end latency to the handoff / fs-server hops the paper blames.
TEST(TraceReportCli, WaterfallLocalizesTailToPaperHops) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json"));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const std::string key = "p99 localization (op commit): ";
  const auto at = r.output.find(key);
  ASSERT_NE(at, std::string::npos) << r.output;
  const auto eq = r.output.find(" = ", at);
  const auto pct = r.output.find("% of e2e p99", at);
  ASSERT_NE(eq, std::string::npos) << r.output;
  ASSERT_NE(pct, std::string::npos) << r.output;
  EXPECT_GE(std::stod(r.output.substr(eq + 3, pct - eq - 3)), 80.0)
      << r.output;
  // Every hop named in the localization must be one the paper blames.
  std::string hops = r.output.substr(at + key.size(), eq - at - key.size());
  std::size_t pos = 0;
  while (pos <= hops.size()) {
    const auto plus = hops.find(" + ", pos);
    const std::string hop = hops.substr(
        pos, plus == std::string::npos ? std::string::npos : plus - pos);
    EXPECT_TRUE(hop == "handoff_recv" || hop == "server_queue" ||
                hop == "server_service")
        << "unexpected hop in localization: " << hop;
    if (plus == std::string::npos) break;
    pos = plus + 3;
  }
}

TEST(TraceReportCli, WaterfallReqRendersChosenRequest) {
  const auto r = run(traceReport() + " --waterfall " +
                     fixture("optrace_rbio.json") + " --req 36864");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("request 36864: op=handoff"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("handoff_send"), std::string::npos);
  EXPECT_NE(r.output.find("net_inject"), std::string::npos);
}

TEST(TraceReportCli, WaterfallReqNotRetainedExitsOne) {
  const auto r = run(traceReport() + " --waterfall " +
                     fixture("optrace_rbio.json") + " --req 99999999");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("request 99999999 not retained"), std::string::npos)
      << r.output;
}

TEST(TraceReportCli, WaterfallDiffComparesHopTables) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
          " --diff " + fixture("optrace_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("A p99"), std::string::npos);
  EXPECT_NE(r.output.find("(e2e)"), std::string::npos);
  EXPECT_NE(r.output.find("server_queue"), std::string::npos);
}

TEST(TraceReportCli, WaterfallRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(TraceReportCli, WaterfallRejectsWrongManifestVersion) {
  const auto r = run(traceReport() + " --waterfall " +
                     fixture("optrace_badmanifest.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("manifest schema"), std::string::npos) << r.output;
}

TEST(TraceReportCli, WaterfallReqUsageErrors) {
  // --req only makes sense with --waterfall, and not alongside --diff.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") + " --req 3")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
                " --diff " + fixture("optrace_coio.json") + " --req 3")
                .exitCode,
            2);
}

TEST(TraceReportCli, RuntimeModeDecomposesParallelRegion) {
  const auto r =
      run(traceReport() + " --runtime " + fixture("runtimeprof_ring.json"));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  // The slowest point is named as the cap on the region.
  EXPECT_NE(r.output.find("critical point: np=65536 coIO nf=1 (3.500 s"),
            std::string::npos)
      << r.output;
  // speedup = 10s of work / 4s wall; ceiling = 10 / max(3.5, 10/8).
  EXPECT_NE(r.output.find("parallel efficiency: speedup 2.50x of 8 threads "
                          "(31.2%); serial fraction 0.35 -> Amdahl ceiling "
                          "2.86x"),
            std::string::npos)
      << r.output;
}

TEST(TraceReportCli, RuntimeDiffComparesPoints) {
  const auto r =
      run(traceReport() + " --runtime " + fixture("runtimeprof_ring.json") +
          " --diff " + fixture("runtimeprof_ring.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("np=65536 coIO nf=1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1.00x"), std::string::npos) << r.output;
}

TEST(TraceReportCli, RuntimeRejectsWrongSchemaVersion) {
  const auto r = run(traceReport() + " --runtime " +
                     fixture("runtimeprof_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(TraceReportCli, RuntimeRejectsWrongManifestVersion) {
  const auto r = run(traceReport() + " --runtime " +
                     fixture("runtimeprof_badmanifest.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("manifest schema"), std::string::npos) << r.output;
}

/// Write `body` to a scratch runtime profile and return its path.
std::string scratchProfile(const char* name, const char* body) {
  const auto path = std::filesystem::temp_directory_path() /
                    (std::string(name) + "_" + std::to_string(::getpid()) +
                     ".json");
  std::ofstream(path) << body;
  return path.string();
}

TEST(TraceReportCli, RuntimeRejectsV1Profile) {
  // Schema v1 profiles (which also carried shard-run tables) are not read.
  const std::string path = scratchProfile(
      "runtimeprof_v1",
      "{\"schema\": \"bgckpt-runtimeprof-1\", \"clock\": \"steady\", "
      "\"parallel_regions\": [], \"points\": []}\n");
  const auto r = run(traceReport() + " --runtime " + path);
  std::filesystem::remove(path);
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(TraceReportCli, RuntimeWarnsAboutDroppedRegions) {
  const std::string path = scratchProfile(
      "runtimeprof_dropped",
      "{\"schema\": \"bgckpt-runtimeprof-2\", \"clock\": \"steady\", "
      "\"dropped_regions\": 3, \"parallel_regions\": [], \"points\": []}\n");
  const auto r = run(traceReport() + " --runtime " + path);
  std::filesystem::remove(path);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("WARNING: 3 parallel region(s) beyond the "
                          "retention cap"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// Bench flags: every value is parsed strictly; a malformed one exits 2 with
// "error: --flag: ..." instead of running with a default.
// ---------------------------------------------------------------------------

std::string benchBin(const char* name) {
  return std::string(BENCH_BIN_DIR) + "/" + name;
}
std::string eq27Bin() { return benchBin("eq27_speedup_model"); }

TEST(BenchFlagsCli, ThreadsRejectsMalformedValues) {
  struct FlagCase {
    std::string bin;
    const char* flag;
    std::vector<const char*> bad;
    /// The flag also takes its value as the next argument (`--flag VALUE`),
    /// so that form and a trailing value-less flag are tried too.
    bool separate;
    /// Arguments that must follow the flag (--telemetry=DT's output file).
    const char* trailing;
  };
  const std::vector<FlagCase> cases = {
      {eq27Bin(), "--threads", {"abc", "0", "-3", "4x", ""}, true, ""},
      {eq27Bin(), "--simcheck", {"bogus", "ON", ""}, false, ""},
      {eq27Bin(), "--flightrec", {"abc", "0", "-5", "8x", ""}, false, ""},
      {eq27Bin(), "--optrace", {"abc", "0", "-2", "inf", ""}, false, ""},
      {eq27Bin(), "--telemetry", {"abc", "0", "-1", "1s"}, false,
       " /dev/null"},
      {eq27Bin(), "--telemetry", {"2"}, false, ""},  // no output file
      {eq27Bin(), "--trace", {}, true, ""},
      {eq27Bin(), "--perf-json", {}, true, ""},
      {eq27Bin(), "--obs-dir", {}, true, ""},
      {benchBin("fig5_write_bandwidth"), "--max-np", {"16384x", "abc", "0"},
       true, ""},
      // Well-formed counts with no Intrepid partition (exit 2, not an
      // abort in the machine model).
      {benchBin("eq7_measured_vs_model"), "--np",
       {"256abc", "-64", "", "128", "192"}, true, ""},
      {benchBin("production_campaign"), "--np", {"256abc", "x", "64"}, true,
       ""},
      {benchBin("production_campaign"), "--steps", {"3x", "-1"}, true, ""},
      {benchBin("production_campaign"), "--every", {"1.5", "0"}, true, ""},
  };
  for (const FlagCase& c : cases) {
    std::vector<std::string> forms;
    for (const char* bad : c.bad) {
      forms.push_back(std::string(c.flag) + "=" + bad + c.trailing);
      if (c.separate) forms.push_back(std::string(c.flag) + " '" + bad + "'");
    }
    if (c.separate) forms.emplace_back(c.flag);  // trailing, no value
    for (const std::string& form : forms) {
      const auto r = run(c.bin + " " + form);
      EXPECT_EQ(r.exitCode, 2) << c.bin << " " << form << "\n" << r.output;
      EXPECT_NE(r.output.find(std::string("error: ") + c.flag),
                std::string::npos)
          << c.bin << " " << form << "\n" << r.output;
    }
  }
}

TEST(BenchFlagsCli, UnknownArgumentExitsTwoWithUsage) {
  // A misspelt flag used to run the whole bench serially and exit 0.
  for (const char* arg : {"--thredas=4", "--thredas", "--max-np=16384",
                          "stray", "-x"}) {
    const auto r = run(eq27Bin() + " " + arg);
    EXPECT_EQ(r.exitCode, 2) << arg << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("error: unknown argument '") + arg +
                            "'"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage: eq27_speedup_model"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("SHAPE CHECK"), std::string::npos) << r.output;
  }
  // A trailing path flag with no path is a bad value, not an unknown flag.
  const auto trailing = run(eq27Bin() + " --metrics");
  EXPECT_EQ(trailing.exitCode, 2) << trailing.output;
  EXPECT_NE(trailing.output.find("error: --metrics:"), std::string::npos)
      << trailing.output;
}

TEST(BenchFlagsCli, HelpListsTheBenchOwnFlags) {
  const auto r = run(benchBin("production_campaign") + " --help");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* flag : {"--threads N", "--np N", "--steps N", "--every N"})
    EXPECT_NE(r.output.find(flag), std::string::npos) << flag << r.output;
  EXPECT_EQ(r.output.find("SHAPE CHECK"), std::string::npos) << r.output;
}

TEST(BenchFlagsCli, PerfJsonLeavesStdoutUnchanged) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("perf_eq27_" + std::to_string(::getpid()) + ".json");
  // The subshell keeps stderr (the announce lines) out of the capture.
  const auto stdoutOf = [](const std::string& args) {
    std::string cmd = "(";
    cmd += eq27Bin();
    cmd += args;
    cmd += " 2>/dev/null)";
    return run(cmd);
  };
  const auto plain = stdoutOf("");
  const auto perf = stdoutOf(" --perf-json " + path.string());
  std::filesystem::remove(path);
  EXPECT_EQ(plain.exitCode, 0) << plain.output;
  EXPECT_EQ(perf.exitCode, 0) << perf.output;
  EXPECT_EQ(plain.output, perf.output);
}

TEST(BenchFlagsCli, ObsDirWritesOneJsonAndManifestPerArtifact) {
  // eq7 simulates two stacks (coIO, rbIO), so every artifact comes twice:
  // FILE and FILE.2. Each is one JSON (the trace adds its .jsonl event
  // log) plus one manifest sidecar naming the artifact; nothing else.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("obs_dir_eq7_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto r = run(benchBin("eq7_measured_vs_model") +
                     " --np 256 --obs-dir=" + dir.string());
  ASSERT_EQ(r.exitCode, 0) << r.output;
  std::vector<std::string> expected;
  for (const char* kind :
       {"trace", "metrics", "attr", "critpath", "telemetry", "optrace"}) {
    for (const char* suffix : {".json", ".2.json"}) {
      const std::string json = std::string(kind) + suffix;
      expected.push_back(json);
      expected.push_back(json + ".manifest.json");
      if (std::string(kind) == "trace") expected.push_back(json + "l");
      std::ifstream manifest(dir / (json + ".manifest.json"));
      const std::string text((std::istreambuf_iterator<char>(manifest)),
                             std::istreambuf_iterator<char>());
      EXPECT_NE(text.find(std::string("\"artifact\": \"") + kind + "\""),
                std::string::npos)
          << json << "\n" << text;
    }
  }
  std::vector<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    written.push_back(entry.path().filename().string());
  std::filesystem::remove_all(dir);
  std::sort(expected.begin(), expected.end());
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, expected);
}

TEST(BenchFlagsCli, ThreadsAcceptsPositiveInteger) {
  const auto r = run(eq27Bin() + " --threads=2");
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(BenchFlagsCli, ThreadsRunMultiPointBenchAsOneParallelRegion) {
  // ablation_1pfpp_dirs simulates three 16K points; --threads=3 must run
  // them as one labelled three-job parallelFor region.
  const auto path = std::filesystem::temp_directory_path() /
                    ("runtimeprof_abl_" + std::to_string(::getpid()) +
                     ".json");
  const auto bench = run(benchBin("ablation_1pfpp_dirs") +
                         " --threads=3 --runtime-profile=" + path.string());
  ASSERT_EQ(bench.exitCode, 0) << bench.output;
  const auto r = run(traceReport() + " --runtime " + path.string());
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".manifest.json");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("1 parallel region(s), 3 point record(s)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(": 3 jobs on 3 threads"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("np=16384 1PFPP"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// tools/sweep + trace_report --campaign: the campaign ledger loop. The
// committed campaign_a / campaign_b fixtures are two-revision mini-ledgers
// produced by the real sweep tool (rev-a / rev-b) over the committed
// sweep_smoke.json spec.
// ---------------------------------------------------------------------------

TEST(SweepCli, SecondPassIsAllCacheHits) {
  TempLedger ledger;
  const std::string cmd = sweepBin() + " " + fixture("sweep_smoke.json") +
                          " --ledger " + ledger.str() + " --bench-dir " +
                          BENCH_BIN_DIR + " --git-rev test-rev --jobs 2";
  const auto first = run(cmd);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("(2 run, 0 cached, 0 failed)"),
            std::string::npos)
      << first.output;
  const auto second = run(cmd);
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("(0 run, 2 cached, 0 failed)"),
            std::string::npos)
      << second.output;
  // A different revision derives different keys: everything re-runs.
  const auto newRev = run(sweepBin() + " " + fixture("sweep_smoke.json") +
                          " --ledger " + ledger.str() + " --bench-dir " +
                          BENCH_BIN_DIR + " --git-rev other-rev --jobs 2");
  EXPECT_EQ(newRev.exitCode, 0) << newRev.output;
  EXPECT_NE(newRev.output.find("(2 run, 0 cached, 0 failed)"),
            std::string::npos)
      << newRev.output;
}

TEST(SweepCli, LedgerFeedsCampaignRollup) {
  TempLedger ledger;
  const auto sweep = run(sweepBin() + " " + fixture("sweep_smoke.json") +
                         " --ledger " + ledger.str() + " --bench-dir " +
                         BENCH_BIN_DIR + " --git-rev test-rev --jobs 1");
  ASSERT_EQ(sweep.exitCode, 0) << sweep.output;
  const auto r = run(traceReport() + " --campaign " + ledger.str());
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("2 run(s), 2 distinct config(s)"),
            std::string::npos)
      << r.output;
  // The roll-up re-derives the bandwidth strings the bench printed,
  // byte-identically (the ledger stores the exact "%.2f GB/s" text).
  EXPECT_NE(r.output.find("0.26 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.15 GB/s"), std::string::npos) << r.output;
}

TEST(SweepCli, RejectsUnknownSpecSchema) {
  TempLedger ledger;
  const auto r = run(sweepBin() + " " + fixture("telemetry_badschema.json") +
                     " --ledger " + ledger.str());
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
  // A second spec is a usage error, not silently the only one swept.
  const auto two = run(sweepBin() + " " + fixture("telemetry_badschema.json") +
                       " " + fixture("sweep_smoke.json") + " --ledger " +
                       ledger.str());
  EXPECT_EQ(two.exitCode, 2) << two.output;
  EXPECT_NE(two.output.find("usage: sweep"), std::string::npos) << two.output;
  EXPECT_EQ(two.output.find("not supported"), std::string::npos) << two.output;
}

TEST(CampaignCli, RendersBandwidthTableAndBestStrategyMatrix) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_a"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("revision(s): rev-a"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("per-strategy bandwidth vs np"), std::string::npos)
      << r.output;
  // Byte-identical to the bench's own stdout at np=256: coIO nf=4 printed
  // "BW_coIO=0.26 GB/s", rbIO "BW_rbIO=0.15 GB/s".
  EXPECT_NE(r.output.find("0.26 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.15 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("best strategy per (np, nf)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("coIO"), std::string::npos);
  EXPECT_NE(r.output.find("rbIO"), std::string::npos);
}

TEST(CampaignCli, DiffMatchesConfigsAcrossRevisions) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_a") +
                     " --diff " + fixture("campaign_b"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("revision(s): rev-b"), std::string::npos)
      << r.output;
  // Same configs at both revisions pair up by config hash; the simulation
  // is deterministic, so event counts match exactly.
  EXPECT_NE(r.output.find("eq7_measured_vs_model --np 256"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("+0.00%"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("only in"), std::string::npos) << r.output;
}

TEST(CampaignCli, BaselineGatePassesOnIdenticalEventCounts) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_b") +
                     " --baseline " + fixture("campaign_a"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("gating against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("campaign gate [OK]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 gated: 2 ok, 0 failed, 0 skipped"),
            std::string::npos)
      << r.output;
}

TEST(CampaignCli, MissingLedgerAndUsageErrorsExitTwo) {
  EXPECT_EQ(run(traceReport() + " --campaign /nonexistent-ledger").exitCode,
            2);
  // --baseline only makes sense with --campaign, and not alongside --diff.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") +
                " --baseline " + fixture("campaign_a"))
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --campaign " + fixture("campaign_a") +
                " --diff " + fixture("campaign_b") + " --baseline " +
                fixture("campaign_a"))
                .exitCode,
            2);
}

TEST(CampaignCli, AcceptsManifestV2Sidecar) {
  // The v2 sidecar (git_rev + config_hash provenance) gates clean; the
  // existing telemetry fixtures cover v1-read compat and the rejection of
  // unknown manifest versions.
  const auto r = run(traceReport() + " --timeline " +
                     fixture("telemetry_v2manifest.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("telemetry timeline"), std::string::npos)
      << r.output;
}

TEST(PerfCompareCli, PassesWhenEventsMatch) {
  const auto r = run(perfCompare() + " " + fixture("perf_base.json") + " " +
                     fixture("perf_same.json") + " --no-wall");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [PASS]: events"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [SKIP]: wall-clock"), std::string::npos);
}

TEST(PerfCompareCli, FailsOnEventRegression) {
  const auto r = run(perfCompare() + " " + fixture("perf_base.json") + " " +
                     fixture("perf_regressed.json") + " --no-wall");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [FAIL]: events"), std::string::npos)
      << r.output;
}

TEST(PerfCompareCli, ComparesMatchingThreadGroupsOnly) {
  // Baseline holds serial and 8-thread groups; the current report is
  // serial-only, so only the threads=1 group gates and the 8-thread group
  // is skipped.
  const auto r = run(perfCompare() + " " + fixture("perf_base_threads.json") +
                     " " + fixture("perf_same.json") + " --no-wall");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [PASS]: events"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[threads=1]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [SKIP]: no [threads=8]"),
            std::string::npos)
      << r.output;
}

TEST(PerfCompareCli, MinSpeedupPassesWhenParallelIsFaster) {
  const auto r = run(perfCompare() + " " + fixture("perf_base.json") + " " +
                     fixture("perf_parallel.json") + " --min-speedup 3");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [PASS]: speedup 4.00x"),
            std::string::npos)
      << r.output;
}

TEST(PerfCompareCli, MinSpeedupFailsWhenParallelIsNotFasterEnough) {
  const auto r = run(perfCompare() + " " + fixture("perf_base.json") + " " +
                     fixture("perf_same.json") + " --min-speedup 3");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("PERF CHECK [FAIL]: speedup"), std::string::npos)
      << r.output;
}

TEST(PerfCompareCli, UsageAndMissingFilesExitTwo) {
  EXPECT_EQ(run(perfCompare()).exitCode, 2);
  EXPECT_EQ(run(perfCompare() + " " + fixture("perf_base.json") +
                " /nonexistent.json")
                .exitCode,
            2);
}

// ---------------------------------------------------------------------------
// All three tools parse their flags through the shared table: a malformed
// number exits 2 instead of silently becoming 0 (or 1), and --help lists
// each tool's flags.
// ---------------------------------------------------------------------------

TEST(ToolsCli, MalformedNumbersExitTwo) {
  std::string reports = " ";
  reports += fixture("perf_base_threads.json");
  reports += " ";
  reports += fixture("perf_parallel.json");
  // The well-formed 100x gate fails; the malformed one must not drop it.
  EXPECT_EQ(run(perfCompare() + reports + " --min-speedup 100").exitCode, 1);
  TempLedger ledger;
  for (const std::string& cmd :
       {perfCompare() + reports + " --min-speedup=x100",
        perfCompare() + reports + " --tolerance=abc",
        traceReport() + " --campaign " + fixture("campaign_b") +
            " --baseline " + fixture("campaign_a") + " --tolerance abc",
        traceReport() + " " + fixture("trace_coio.jsonl") + " --bins 4x",
        sweepBin() + " " + fixture("sweep_smoke.json") + " --ledger " +
            ledger.str() + " --jobs abc"}) {
    const auto r = run(cmd);
    EXPECT_EQ(r.exitCode, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("error: --"), std::string::npos) << r.output;
  }
}

TEST(ToolsCli, HelpListsEachToolsFlags) {
  const std::vector<std::pair<std::string, std::vector<const char*>>> tools =
      {{perfCompare(), {"--tolerance FRAC", "--no-wall", "--min-speedup X"}},
       {traceReport(),
        {"--bins N", "--width N", "--req ID", "--attr", "--critpath",
         "--timeline", "--waterfall", "--runtime", "--campaign",
         "--baseline DIR", "--tolerance F", "--diff FILE"}},
       {sweepBin(),
        {"--ledger DIR", "--jobs N", "--git-rev REV", "--bench-dir DIR"}}};
  for (const auto& [bin, flags] : tools) {
    const auto r = run(bin + " --help");
    EXPECT_EQ(r.exitCode, 0) << bin << "\n" << r.output;
    for (const char* flag : flags)
      EXPECT_NE(r.output.find(flag), std::string::npos)
          << bin << " " << flag << "\n" << r.output;
  }
}

}  // namespace
