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
#include <stdexcept>
#include <string>

#include "simcore/parallel.hpp"

#include "obs/attr.hpp"
#include "obs/cli.hpp"
#include "obs/critpath.hpp"
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

std::string swapJsonForCsv(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    return path.substr(0, path.size() - 5) + ".csv";
  return path + ".csv";
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
           "export the metrics registry as JSON to FILE, plus a CSV twin"),
      Flag("--perf-json", Kind::kPath, &gPerfJsonPath,
           "write one perf record per simulated run (wall seconds, events, "
           "events/s) plus totals; gate two of them with perf_compare"),
      Flag("--attr", Kind::kPath, &gAttrPath,
           "export per-rank blocked-time attribution (obs/attr.hpp) as JSON "
           "to FILE, plus a CSV twin"),
      Flag("--critpath", Kind::kPath, &gCritPathPath,
           "record the causal event graph and write the critical-path report "
           "(obs/critpath.hpp) as JSON to FILE"),
      Flag("--telemetry", Kind::kPositive, &gTelemetryDt,
           "sample every telemetry probe into DT-second buckets (default "
           "0.25 simulated s) and write the timeseries as JSON to FILE, plus "
           "a CSV twin; render it with trace_report --timeline",
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
    const auto derive = [&](std::string& path, const char* name) {
      if (path.empty()) path = gObsDir + "/" + name;
    };
    derive(gTracePath, "trace.json");
    derive(gMetricsPath, "metrics.json");
    derive(gAttrPath, "attr.json");
    derive(gCritPathPath, "critpath.json");
    derive(gTelemetryPath, "telemetry.json");
    gOpTraceEnabled = true;
    derive(gOpTracePath, "optrace.json");
    // Deliberately NOT derived: the runtime profile records wall time, so
    // its JSON can never be byte-stable; keeping it out of the obs dir
    // keeps the serial-vs-threaded artifact identity contract intact.
  }
  if (!gRuntimeProfPath.empty()) {
    // Fail a typo'd path at startup (exit 2), same contract as --trace.
    {
      std::ofstream probe(gRuntimeProfPath);
      if (!probe) {
        std::fprintf(stderr, "error: --runtime-profile: cannot open %s\n",
                     gRuntimeProfPath.c_str());
        std::exit(2);
      }
    }
    gRuntimeProf = std::make_unique<obs::RuntimeProfiler>();
    gRuntimeProf->install();
    std::fprintf(stderr, "[obs] runtime execution profile to %s\n",
                 gRuntimeProfPath.c_str());
  }
}

obs::cli::Flag intFlag(const char* name, int* into, const char* help) {
  return obs::cli::Flag(name, obs::cli::Kind::kCount, into, help);
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
  if (!gRuntimeProf->writeJson(gRuntimeProfPath)) {
    std::fprintf(stderr, "error: --runtime-profile: cannot write %s\n",
                 gRuntimeProfPath.c_str());
    return false;
  }
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
  return !(gTracePath.empty() && gMetricsPath.empty() && gAttrPath.empty() &&
           gCritPathPath.empty() && gTelemetryPath.empty() &&
           !gOpTraceEnabled && gFlightRecEvents == 0);
}

/// attachObs with an explicit stack ordinal: runSims pre-assigns numbers
/// in point order so the ".2"/".3" artifact suffixes are identical to a
/// serial run whatever order the workers finish in.
void attachObsNumbered(iolib::SimStack& stack, int n) {
  const int np = stack.rt.numRanks();
  // Each artifact written by this attach gets a "<path>.manifest.json"
  // sidecar so downstream tools can validate provenance and schema.
  std::vector<std::pair<const char*, std::string>> artifacts;
  if (!gTracePath.empty()) {
    const std::string chrome = numbered(gTracePath, n);
    const std::string jsonl = jsonlTwin(chrome);
    try {
      stack.obs.addSink(obs::ChromeTraceSink::toFiles(chrome, jsonl));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: --trace: %s\n", e.what());
      std::exit(2);
    }
    std::fprintf(stderr, "[obs] streaming Chrome trace to %s (+ %s)\n",
                 chrome.c_str(), jsonl.c_str());
    artifacts.emplace_back("trace", chrome);
  }
  if (!gMetricsPath.empty()) {
    const std::string json = numbered(gMetricsPath, n);
    stack.obs.exportOnDestroy(json, swapJsonForCsv(json));
    std::fprintf(stderr, "[obs] metrics will be written to %s and %s\n",
                 json.c_str(), swapJsonForCsv(json).c_str());
    artifacts.emplace_back("metrics", json);
  }
  // Every announce line goes to stderr: figure stdout must stay
  // byte-identical whatever observability is on. The sinks below only
  // write at finalize, so probe the path now — a typo must fail at startup
  // with exit 2, the same contract as --trace.
  const auto requireWritable = [](const char* flag, const std::string& path) {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: %s: cannot open %s\n", flag, path.c_str());
      std::exit(2);
    }
  };
  if (!gAttrPath.empty()) {
    const std::string json = numbered(gAttrPath, n);
    requireWritable("--attr", json);
    requireWritable("--attr", swapJsonForCsv(json));
    auto attr = std::make_shared<obs::AttributionSink>();
    attr->exportTo(json, swapJsonForCsv(json));
    stack.obs.addSink(std::move(attr));
    std::fprintf(stderr, "[obs] blocked-time attribution to %s and %s\n",
                 json.c_str(), swapJsonForCsv(json).c_str());
    artifacts.emplace_back("attr", json);
  }
  if (!gCritPathPath.empty()) {
    const std::string json = numbered(gCritPathPath, n);
    requireWritable("--critpath", json);
    stack.obs.attachCritPath(stack.sched, json);
    std::fprintf(stderr, "[obs] critical-path report to %s\n", json.c_str());
    artifacts.emplace_back("critpath", json);
  }
  if (!gTelemetryPath.empty()) {
    const std::string json = numbered(gTelemetryPath, n);
    const std::string csv = swapJsonForCsv(json);
    requireWritable("--telemetry", json);
    requireWritable("--telemetry", csv);
    stack.obs.attachTelemetry(stack.sched, gTelemetryDt, json, csv);
    std::fprintf(stderr,
                 "[obs] sampled telemetry (dt=%.3gs) to %s and %s\n",
                 stack.obs.telemetry().bucketDt(), json.c_str(), csv.c_str());
    artifacts.emplace_back("telemetry", json);
  }
  if (gOpTraceEnabled) {
    const std::string json =
        gOpTracePath.empty() ? std::string() : numbered(gOpTracePath, n);
    if (!json.empty()) requireWritable("--optrace", json);
    stack.obs.attachOpTrace(gOpTraceSampleEvery, -1, json);
    std::fprintf(stderr, "[obs] op tracing on (sampling 1 in %u)%s%s\n",
                 stack.obs.opTracer()->sampleEvery(),
                 json.empty() ? "" : ", report to ",
                 json.c_str());
    if (!json.empty()) artifacts.emplace_back("optrace", json);
  }
  for (const auto& [kind, path] : artifacts) writeManifest(path, kind, np, n);
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
