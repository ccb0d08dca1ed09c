#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "machine/bgp.hpp"
#include "simcore/parallel.hpp"

#include "obs/cli.hpp"
#include "obs/flightrec.hpp"
#include "obs/optrace.hpp"
#include "obs/runstore.hpp"
#include "obs/runtimeprof.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace bgckpt::bench {

namespace {

std::string gTracePath;
std::string gMetricsPath;
std::string gPerfJsonPath;
std::string gAttrPath;
std::string gCritPathPath;
std::string gTelemetryPath;
double gTelemetryDt = 0.0;  // 0 = Telemetry::kDefaultDt
int gFlightRecEvents = 0;
bool gOpTraceEnabled = false;
std::string gOpTracePath;
std::uint32_t gOpTraceSampleEvery = 0;  // 0 = OpTracer::kDefaultSampleEvery
std::string gObsDir;
std::string gRuntimeProfPath;
// The process-wide runtime profiler (obs/runtimeprof.hpp), created and
// installed by obsInit when --runtime-profile is given; flushed (JSON +
// manifest) by perfFlush. Process-global rather than per-stack: real time
// cuts across stacks.
std::unique_ptr<obs::RuntimeProfiler> gRuntimeProf;
bool gRuntimeProfFlushed = false;
// Captured by obsInit for the run manifests written next to each artifact.
std::string gBenchName;
std::vector<std::string> gCmdArgs;
// Manifest-v2 provenance: the sweep driver exports the revision and the
// ledger config hash it derived for this child (BGCKPT_GIT_REV /
// BGCKPT_CONFIG_HASH); standalone runs self-derive a config hash over
// (bench, args) and stamp the rev as "unknown".
std::string gGitRev;
std::string gConfigHash;
// The flags given on the command line, listed in every manifest.
std::vector<std::string> gGivenFlags;
int gSimCheck = -1;  // index into {on, warn, off}; -1 = absent (kAuto)
int gThreads = 1;
int gStacksAttached = 0;
// Keep attached recorders alive past their stacks so a SHAPE CHECK failure
// at report time can still dump what each run was doing (the global
// registry in obs/flightrec holds only weak references). Guarded: runSims
// workers attach concurrently.
std::mutex gFlightRecMu;
std::vector<std::shared_ptr<obs::FlightRecorder>> gFlightRecorders;

/// Strategy/result metadata attached to runSim perf records. The campaign
/// roll-up (trace_report --campaign) re-derives figure tables from these
/// fields; measuredGbs stores the exact string the bench printed, so the
/// ledger view is byte-identical to the individually-run bench's stdout by
/// construction, not by re-formatting.
struct SimMeta {
  bool present = false;
  int np = 0;
  int nf = 0;
  std::string strategy;     // strategyName(cfg.kind)
  std::string config;       // cfg.describe()
  std::string measuredGbs;  // gbs(result.bandwidth)
  double simSeconds = 0.0;  // result.makespan, simulated seconds
};

struct PerfEntry {
  std::string label;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  unsigned threads = 1;
  SimMeta sim;
};
std::vector<PerfEntry> gPerfEntries;

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// "out/trace.json" -> "out/trace.2.json" for the second stack, etc.
std::string numbered(const std::string& path, int n) {
  if (n <= 1) return path;
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  // Built with += rather than `"." + to_string(n)`: the rvalue-insert
  // overload trips GCC 12's -Wrestrict false positive at -O3 under -Werror.
  std::string tag(".");
  tag += std::to_string(n);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

std::string jsonlTwin(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    return path + "l";
  return path + ".jsonl";
}

/// Write the run manifest next to an obs artifact: which harness produced
/// it, on what partition, with which flags, at which revision. Serialized
/// by the shared stamping helper (obs::writeArtifactManifest) so every
/// sidecar in the repo carries the same v2 provenance fields. The artifact
/// path itself was already probed writable, so a failure here is
/// unexpected enough to warrant the same exit-2 contract.
void writeManifest(const std::string& artifactPath, const char* artifact,
                   int np, int stackN) {
  obs::ManifestInfo info;
  info.artifact = artifact;
  info.bench = gBenchName;
  info.np = np;
  info.stack = stackN;
  info.bucketDt = gTelemetryDt > 0 ? gTelemetryDt : obs::Telemetry::kDefaultDt;
  info.gitRev = gGitRev;
  info.configHash = gConfigHash;
  info.flags = gGivenFlags;
  info.args = gCmdArgs;
  if (!obs::writeArtifactManifest(artifactPath, info)) {
    std::fprintf(stderr, "error: cannot write manifest for %s\n",
                 artifactPath.c_str());
    std::exit(2);
  }
}

/// Fail a typo'd output path at startup (exit 2): most artifacts are only
/// written at finalize, long after the flag was read.
void requireWritable(const std::string& flag, const std::string& path) {
  if (!std::ofstream(path)) {
    std::fprintf(stderr, "error: %s: cannot open %s\n", flag.c_str(),
                 path.c_str());
    std::exit(2);
  }
}

/// One row per obs artifact flag: the artifact's name (its manifest
/// "artifact", its --obs-dir file stem and its announce line), the flag's
/// FILE, and the hub artifact it registers. The trace has none: it streams
/// through its own sink; the hub writes every other artifact at finalize.
struct ArtifactFlag {
  const char* name;
  std::string* path;
  std::optional<obs::Artifact> kind;
};

const ArtifactFlag kArtifactFlags[] = {
    {"trace", &gTracePath, std::nullopt},
    {"metrics", &gMetricsPath, obs::Artifact::kMetrics},
    {"attr", &gAttrPath, obs::Artifact::kAttr},
    {"critpath", &gCritPathPath, obs::Artifact::kCritPath},
    {"telemetry", &gTelemetryPath, obs::Artifact::kTelemetry},
    {"optrace", &gOpTracePath, obs::Artifact::kOpTrace},
};

}  // namespace

void obsInit(int argc, char** argv, std::vector<obs::cli::Flag> benchFlags) {
  using obs::cli::Flag;
  using obs::cli::Form;
  using obs::cli::Kind;
  using obs::cli::Operand;
  if (argc > 0) gBenchName = obs::cli::programName(argv[0]);
  gCmdArgs.assign(argv + (argc > 0 ? 1 : 0), argv + argc);
  const char* rev = std::getenv("BGCKPT_GIT_REV");
  gGitRev = rev != nullptr && *rev != '\0' ? rev : "unknown";
  if (const char* hash = std::getenv("BGCKPT_CONFIG_HASH");
      hash != nullptr && *hash != '\0') {
    gConfigHash = hash;
  } else {
    // Standalone run: hash (bench, args) so two invocations of the same
    // command line still share a config identity.
    std::string material = gBenchName;
    for (const std::string& a : gCmdArgs) {
      material += '\n';
      material += a;
    }
    gConfigHash = obs::hex16(obs::fnv1a64(material));
  }
  double opTraceRate = 0.0;  // 0 = OpTracer::kDefaultSampleEvery
  std::vector<Flag> flags = {
      Flag("--threads", Kind::kCount, &gThreads,
           "simulate the points a harness hands to runSims on N worker "
           "threads (1 = the serial reference); results, stdout and every "
           "perf/obs artifact are byte-identical to the serial run"),
      Flag("--simcheck", Kind::kEnum, &gSimCheck,
           "run the invariant checker (simcore/simcheck.hpp) on every point; "
           "without the flag the SIM_CHECK environment variable decides",
           Form::kAttached)
          .bareMeans("on")
          .oneOf({"on", "warn", "off"}),
      Flag("--trace", Kind::kPath, &gTracePath,
           "stream a Chrome trace_event JSON to FILE (open it in Perfetto), "
           "plus a .jsonl event log for trace_report; multi-stack harnesses "
           "number the files (FILE.2.json, ...)"),
      Flag("--metrics", Kind::kPath, &gMetricsPath,
           "export the metrics registry as JSON to FILE"),
      Flag("--perf-json", Kind::kPath, &gPerfJsonPath,
           "write one perf record per simulated run (wall seconds, events, "
           "events/s) plus totals; gate two of them with perf_compare"),
      Flag("--attr", Kind::kPath, &gAttrPath,
           "export per-rank blocked-time attribution (obs/attr.hpp) as JSON "
           "to FILE"),
      Flag("--critpath", Kind::kPath, &gCritPathPath,
           "record the causal event graph and write the critical-path report "
           "(obs/critpath.hpp) as JSON to FILE"),
      Flag("--telemetry", Kind::kPositive, &gTelemetryDt,
           "sample every telemetry probe into DT-second buckets (default "
           "0.25 simulated s) and write the timeseries as JSON to FILE; "
           "render it with trace_report --timeline",
           Form::kAttached, "DT")
          .then(Operand::kPath, &gTelemetryPath),
      Flag("--optrace", Kind::kPositive, &opTraceRate,
           "trace every checkpoint write op from the issuing rank down to the "
           "DDN commit (obs/optrace.hpp); RATE > 1 keeps every RATE-th "
           "waterfall, RATE in (0,1] is a sampling probability (default 1 in "
           "64; the slowest requests are always kept); FILE gets the report "
           "for trace_report --waterfall",
           Form::kAttached, "RATE")
          .then(Operand::kOptionalPath, &gOpTracePath),
      Flag("--obs-dir", Kind::kPath, &gObsDir,
           "write every trace/metrics/attr/critpath/telemetry/optrace "
           "artifact not given explicitly as DIR/<artifact>.json, creating "
           "DIR first",
           Form::kBoth, "DIR"),
      Flag("--flightrec", Kind::kCount, &gFlightRecEvents,
           "keep the last N (default 256) trace events per layer per stack; "
           "invariant violations and failed shape checks dump them to stderr",
           Form::kAttached)
          .bareMeans(std::to_string(obs::FlightRecorder::kDefaultEvents)),
      Flag("--runtime-profile", Kind::kPath, &gRuntimeProfPath,
           "profile the point-level parallelism in real time "
           "(obs/runtimeprof.hpp) and write it to FILE (default "
           "runtimeprof.json) for trace_report --runtime; wall-clock, so "
           "never byte-stable and never derived by --obs-dir",
           Form::kAttached)
          .bareMeans("runtimeprof.json"),
  };
  flags.insert(flags.end(), std::make_move_iterator(benchFlags.begin()),
               std::make_move_iterator(benchFlags.end()));
  obs::cli::Parser cli(gBenchName, {"[flags]"}, std::move(flags));
  cli.parseOrExit(argc, argv);
  gGivenFlags = cli.given();
  gOpTraceEnabled = std::find(gGivenFlags.begin(), gGivenFlags.end(),
                              "--optrace") != gGivenFlags.end();
  if (opTraceRate > 0.0) {
    // RATE > 1 means "every Nth request"; RATE in (0, 1] is a sampling
    // probability converted to the nearest 1-in-N.
    const double every = opTraceRate > 1.0 ? opTraceRate : 1.0 / opTraceRate;
    gOpTraceSampleEvery = static_cast<std::uint32_t>(
        std::round(std::clamp(every, 1.0, 4294967295.0)));
  }
  if (!gObsDir.empty()) {
    // One directory for the whole observability suite: every artifact not
    // explicitly pointed elsewhere lands in DIR with a conventional name
    // (explicit flags win over the derived paths).
    std::error_code ec;
    std::filesystem::create_directories(gObsDir, ec);
    if (ec) {
      std::fprintf(stderr, "error: --obs-dir: cannot create %s: %s\n",
                   gObsDir.c_str(), ec.message().c_str());
      std::exit(2);
    }
    for (const ArtifactFlag& a : kArtifactFlags)
      if (a.path->empty()) *a.path = gObsDir + "/" + a.name + ".json";
    gOpTraceEnabled = true;
    // Deliberately NOT derived: the runtime profile records wall time, so
    // its JSON can never be byte-stable; keeping it out of the obs dir
    // keeps the serial-vs-threaded artifact identity contract intact.
  }
  if (!gRuntimeProfPath.empty()) {
    requireWritable("--runtime-profile", gRuntimeProfPath);
    gRuntimeProf = std::make_unique<obs::RuntimeProfiler>();
    gRuntimeProf->install();
    std::fprintf(stderr, "[obs] runtime execution profile to %s\n",
                 gRuntimeProfPath.c_str());
  }
}

obs::cli::Flag intFlag(const char* name, int* into, const char* help) {
  return obs::cli::Flag(name, obs::cli::Kind::kCount, into, help);
}

void requireIntrepidNp(int np) {
  if (machine::isIntrepidRankCount(np)) return;
  std::fprintf(stderr,
               "error: --np: expected an Intrepid partition size (%s), "
               "got '%d'\n",
               machine::intrepidRankCounts().c_str(), np);
  std::exit(2);
}

sim::SimCheckMode simCheckMode() {
  using sim::SimCheckMode;
  constexpr SimCheckMode kModes[] = {SimCheckMode::kOn, SimCheckMode::kWarn,
                                     SimCheckMode::kOff};
  return gSimCheck < 0 ? SimCheckMode::kAuto : kModes[gSimCheck];
}

void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events) {
  if (gRuntimeProf)
    gRuntimeProf->recordPoint(label, wallSeconds, events, gThreads);
  if (gPerfJsonPath.empty()) return;
  gPerfEntries.push_back(
      PerfEntry{label, wallSeconds, events, static_cast<unsigned>(gThreads),
                SimMeta{}});
}

namespace {

/// Export the runtime profile (once): JSON + manifest sidecar. Announces
/// on stderr so figure stdout stays byte-identical with profiling on.
bool runtimeProfFlush() {
  if (!gRuntimeProf || gRuntimeProfFlushed) return true;
  gRuntimeProfFlushed = true;
  // Stop observing before export: no run should be in flight at flush
  // time, and uninstalling makes that a hard property.
  gRuntimeProf->uninstall();
  if (!obs::writeArtifactFile("runtimeprof", gRuntimeProfPath,
                              gRuntimeProf->toJson()))
    return false;
  writeManifest(gRuntimeProfPath, "runtimeprof", 0, 0);
  std::fprintf(stderr,
               "[obs] runtime profile: %zu parallel region(s), %zu point(s) "
               "-> %s\n",
               gRuntimeProf->regions().size(), gRuntimeProf->points().size(),
               gRuntimeProfPath.c_str());
  return true;
}

}  // namespace

bool perfFlush() {
  if (!runtimeProfFlush()) return false;
  if (gPerfJsonPath.empty()) return true;
  std::FILE* f = std::fopen(gPerfJsonPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: --perf-json: cannot write %s\n",
                 gPerfJsonPath.c_str());
    return false;
  }
  double totalWall = 0.0;
  std::uint64_t totalEvents = 0;
  std::fprintf(f, "{\n  \"runs\": [\n");
  for (std::size_t i = 0; i < gPerfEntries.size(); ++i) {
    const PerfEntry& e = gPerfEntries[i];
    const double eps = e.wallSeconds > 0.0
                           ? static_cast<double>(e.events) / e.wallSeconds
                           : 0.0;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"threads\": %u, "
                 "\"wall_seconds\": %.6f, "
                 "\"events\": %llu, \"events_per_second\": %.0f",
                 jsonEscape(e.label).c_str(), e.threads, e.wallSeconds,
                 static_cast<unsigned long long>(e.events), eps);
    if (e.sim.present) {
      // Flat scalar fields only: perf_compare scans each record up to its
      // first '}', so nothing nested may appear here.
      std::fprintf(f,
                   ", \"np\": %d, \"nf\": %d, \"strategy\": \"%s\", "
                   "\"config\": \"%s\", \"measured_gbs\": \"%s\", "
                   "\"sim_seconds\": %.6f",
                   e.sim.np, e.sim.nf, jsonEscape(e.sim.strategy).c_str(),
                   jsonEscape(e.sim.config).c_str(),
                   jsonEscape(e.sim.measuredGbs).c_str(), e.sim.simSeconds);
    }
    std::fprintf(f, "}%s\n", i + 1 < gPerfEntries.size() ? "," : "");
    totalWall += e.wallSeconds;
    totalEvents += e.events;
  }
  const double totalEps =
      totalWall > 0.0 ? static_cast<double>(totalEvents) / totalWall : 0.0;
  std::fprintf(f,
               "  ],\n  \"total\": {\"wall_seconds\": %.6f, \"events\": %llu, "
               "\"events_per_second\": %.0f}\n}\n",
               totalWall, static_cast<unsigned long long>(totalEvents),
               totalEps);
  std::fclose(f);
  std::fprintf(stderr, "[perf] wrote %zu run records to %s\n",
               gPerfEntries.size(), gPerfJsonPath.c_str());
  return true;
}

namespace {

bool obsActive() {
  return gOpTraceEnabled || gFlightRecEvents > 0 ||
         std::any_of(std::begin(kArtifactFlags), std::end(kArtifactFlags),
                     [](const ArtifactFlag& a) { return !a.path->empty(); });
}

/// attachObs with an explicit stack ordinal: runSims pre-assigns numbers
/// in point order so the ".2"/".3" artifact suffixes are identical to a
/// serial run whatever order the workers finish in. Every announce line
/// goes to stderr: figure stdout must stay byte-identical whatever
/// observability is on.
void attachObsNumbered(iolib::SimStack& stack, int n) {
  const int np = stack.rt.numRanks();
  // Recorders first: the hub registers an artifact only once its recorder
  // is attached.
  if (!gAttrPath.empty()) stack.obs.attachAttribution();
  if (!gCritPathPath.empty()) stack.obs.attachCritPath(stack.sched);
  if (!gTelemetryPath.empty())
    stack.obs.attachTelemetry(stack.sched, gTelemetryDt);
  if (gOpTraceEnabled)
    std::fprintf(stderr, "[obs] op tracing on (sampling 1 in %u)\n",
                 stack.obs.attachOpTrace(gOpTraceSampleEvery).sampleEvery());
  for (const ArtifactFlag& a : kArtifactFlags) {
    if (a.path->empty()) continue;
    const std::string path = numbered(*a.path, n);
    requireWritable(std::string("--") + a.name, path);
    if (a.kind) {
      stack.obs.exportArtifact(*a.kind, path);
    } else {
      try {
        stack.obs.addSink(
            obs::ChromeTraceSink::toFiles(path, jsonlTwin(path)));
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "error: --trace: %s\n", e.what());
        std::exit(2);
      }
    }
    std::fprintf(stderr, "[obs] %s to %s\n", a.name, path.c_str());
    // Each artifact gets a "<path>.manifest.json" sidecar so downstream
    // tools can validate provenance and schema.
    writeManifest(path, a.name, np, n);
  }
  if (gFlightRecEvents > 0) {
    // runSims already creates one via SimStackOptions; cover harnesses
    // that build their own SimStack and only call attachObs.
    if (!stack.flightRecorder) {
      stack.flightRecorder = obs::FlightRecorder::create(gFlightRecEvents);
      stack.obs.addSink(stack.flightRecorder);
    }
    {
      std::lock_guard<std::mutex> lock(gFlightRecMu);
      gFlightRecorders.push_back(stack.flightRecorder);
    }
    std::fprintf(stderr, "[obs] flight recorder armed (%d events/layer)\n",
                 gFlightRecEvents);
  }
}

}  // namespace

void attachObs(iolib::SimStack& stack) {
  if (!obsActive()) return;
  attachObsNumbered(stack, ++gStacksAttached);
}

void banner(const std::string& artifact, const std::string& description) {
  std::printf("\n====================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Fu, Min, Latham, Carothers - \"Parallel I/O Performance for\n");
  std::printf("Application-Level Checkpointing on the Blue Gene/P System\" (2011)\n");
  std::printf("%s\n", description.c_str());
  std::printf("====================================================================\n");
}

int reportChecks(const std::vector<Check>& checks) {
  if (!perfFlush()) return 1;
  int failures = 0;
  std::printf("\n");
  for (const auto& c : checks) {
    std::printf("SHAPE CHECK [%s]: %s (%s)\n", c.pass ? "PASS" : "FAIL",
                c.name.c_str(), c.detail.c_str());
    if (!c.pass) ++failures;
  }
  std::printf("%d/%zu shape checks passed\n",
              static_cast<int>(checks.size()) - failures, checks.size());
  if (failures > 0 && !gFlightRecorders.empty()) {
    std::fprintf(stderr,
                 "[flightrec] %d shape check(s) failed; dumping the last "
                 "recorded events per stack\n",
                 failures);
    obs::dumpFlightRecorders(std::cerr);
  }
  return failures == 0 ? 0 : 1;
}

std::string gbs(double bytesPerSecond) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f GB/s", bytesPerSecond / 1e9);
  return buf;
}

std::string secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  return buf;
}

namespace {

/// Run one checkpoint and hand back its wall time and event count without
/// touching the (order-sensitive) perf record.
iolib::CheckpointResult runMeasured(iolib::SimStack& stack, int np,
                                    const iolib::StrategyConfig& cfg,
                                    double& wallSeconds,
                                    std::uint64_t& events) {
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
  const WallTimer timer;
  const std::uint64_t events0 = stack.sched.eventsProcessed();
  auto result = iolib::runCheckpoint(stack, spec, cfg);
  wallSeconds = timer.seconds();
  events = stack.sched.eventsProcessed() - events0;
  return result;
}

std::string pointLabel(int np, const iolib::StrategyConfig& cfg) {
  return "np=" + std::to_string(np) + " " + cfg.describe();
}

/// perfRecord plus the strategy/result metadata of one simulated
/// checkpoint, so the --perf-json record carries the sim fields that the
/// campaign roll-up reads.
void perfRecordSim(double wallSeconds, std::uint64_t events, int np,
                   const iolib::StrategyConfig& cfg,
                   const iolib::CheckpointResult& result) {
  perfRecord(pointLabel(np, cfg), wallSeconds, events);
  if (gPerfJsonPath.empty() || gPerfEntries.empty()) return;
  SimMeta& sim = gPerfEntries.back().sim;
  sim.present = true;
  sim.np = np;
  sim.nf = cfg.nf;
  sim.strategy = iolib::strategyName(cfg.kind);
  sim.config = cfg.describe();
  sim.measuredGbs = gbs(result.bandwidth);
  sim.simSeconds = result.makespan;
}

}  // namespace

std::vector<iolib::CheckpointResult> runSims(
    const std::vector<SimPoint>& points) {
  const bool obs = obsActive();
  const int base = gStacksAttached;
  // Reserve artifact ordinals in point order up front; any later attach
  // continues after them.
  if (obs) gStacksAttached = base + static_cast<int>(points.size());
  if (gRuntimeProf) {
    // Name the parallelFor jobs after their figure points, so the profile's
    // job table (and trace_report --runtime) says "np=65536 coIO nf=1"
    // instead of "job 7".
    std::vector<std::string> labels;
    labels.reserve(points.size());
    for (const SimPoint& p : points) labels.push_back(pointLabel(p.np, p.cfg));
    gRuntimeProf->setPointLabels(std::move(labels));
  }
  struct Run {
    iolib::CheckpointResult result;
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<Run> runs(points.size());
  sim::parallelFor(points.size(), gThreads, [&](std::size_t i) {
    const SimPoint& p = points[i];
    iolib::SimStackOptions opt = p.stack;
    opt.simcheck = simCheckMode();
    opt.flightRecorderEvents = gFlightRecEvents;
    iolib::SimStack stack(p.np, opt);
    if (obs) attachObsNumbered(stack, base + static_cast<int>(i) + 1);
    Run& run = runs[i];
    run.result = runMeasured(stack, p.np, p.cfg, run.wallSeconds, run.events);
  });
  std::vector<iolib::CheckpointResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    perfRecordSim(runs[i].wallSeconds, runs[i].events, points[i].np,
                  points[i].cfg, runs[i].result);
    results.push_back(std::move(runs[i].result));
  }
  return results;
}

iolib::CheckpointResult runSim(iolib::SimStack& stack, int np,
                               const iolib::StrategyConfig& cfg) {
  double wall = 0.0;
  std::uint64_t events = 0;
  auto result = runMeasured(stack, np, cfg, wall, events);
  perfRecordSim(wall, events, np, cfg, result);
  return result;
}

std::vector<Approach> paperApproaches(int np) {
  using iolib::StrategyConfig;
  return {
      {"1PFPP", StrategyConfig::onePfpp()},
      {"coIO, nf=1", StrategyConfig::coIo(1)},
      {"coIO, np:nf=64:1", StrategyConfig::coIo(np / 64)},
      {"rbIO, 64:1, nf=1", StrategyConfig::rbIo(64, false)},
      {"rbIO, 64:1, nf=ng", StrategyConfig::rbIo(64, true)},
  };
}

std::vector<ScaleRuns> runPaperGrid(const std::vector<int>& scales) {
  std::vector<SimPoint> points;
  std::vector<ScaleRuns> grid;
  for (int np : scales) {
    ScaleRuns& row = grid.emplace_back();
    row.np = np;
    for (auto& a : paperApproaches(np)) {
      points.push_back({np, a.cfg, {}});
      row.runs.push_back({std::move(a.name), {}});
    }
  }
  auto results = runSims(points);
  std::size_t k = 0;
  for (ScaleRuns& row : grid)
    for (ApproachRun& run : row.runs) run.result = std::move(results[k++]);
  return grid;
}

}  // namespace bgckpt::bench
