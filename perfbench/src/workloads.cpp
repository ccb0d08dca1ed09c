#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "iofmt/format.hpp"
#include "iolib/layout.hpp"
#include "iolib/stack.hpp"
#include "iolib/strategies.hpp"
#include "obs/attr.hpp"

namespace perfbench {

namespace iolib = bgckpt::iolib;
namespace hostio = bgckpt::hostio;
namespace obs = bgckpt::obs;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const iolib::SimStack& stack, const char* name) {
  const auto& all = stack.obs.metrics().counters();
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second.value();
}

double gauge(const iolib::SimStack& stack, const char* name) {
  const auto& all = stack.obs.metrics().gauges();
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second.value();
}

/// Part files a checkpoint of `p` writes.
int expectedFiles(const SimPoint& p) {
  switch (p.cfg.kind) {
    case iolib::StrategyKind::k1Pfpp: return p.np;
    case iolib::StrategyKind::kCoIo: return p.cfg.nf;
    case iolib::StrategyKind::kRbIo:
      return p.cfg.nf == 1 ? 1 : p.np / p.cfg.groupSize;
  }
  return 0;
}

/// Everything wrong with a finished checkpoint, "" when nothing is.
std::string checkCheckpoint(const SimPoint& p, const iolib::SimStack& stack,
                            const iolib::CheckpointSpec& spec,
                            const iolib::CheckpointResult& r) {
  const int files = expectedFiles(p);
  const auto expected =
      static_cast<std::uint64_t>(p.np) * spec.bytesPerRank() +
      static_cast<std::uint64_t>(files) * spec.headerBytes;
  if (r.logicalBytes != expected)
    return format("logicalBytes %llu, expected %llu",
                  static_cast<unsigned long long>(r.logicalBytes),
                  static_cast<unsigned long long>(expected));
  const std::uint64_t stored = counter(stack, "stor.bytes_written");
  if (stored < r.logicalBytes)
    return format("stor.bytes_written %llu < logical bytes %llu",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(r.logicalBytes));
  std::uint64_t covered = 0;
  for (int part = 0; part < files; ++part) {
    const auto* file =
        stack.fsys.image().find(iolib::checkpointPath(spec, part));
    if (file == nullptr) return format("part %d missing from the image", part);
    covered += file->coveredBytes();
  }
  if (covered != r.logicalBytes)
    return format("the image holds %llu bytes, logical bytes %llu",
                  static_cast<unsigned long long>(covered),
                  static_cast<unsigned long long>(r.logicalBytes));
  return "";
}

/// Per-layer counters of a finished point (checkpoint + restart).
std::map<std::string, double> layerCounters(const iolib::SimStack& stack,
                                            std::uint64_t events) {
  const auto c = [&stack](const char* name) {
    return static_cast<double>(counter(stack, name));
  };
  return {
      {"simcore.events", static_cast<double>(events)},
      {"simcore.queue_depth_max", gauge(stack, "sched.queue_depth.max")},
      {"simcore.pool_slots", static_cast<double>(stack.sched.eventPoolSize())},
      {"netsim.torus_messages", c("net.torus.messages")},
      {"netsim.torus_bytes", c("net.torus.bytes")},
      {"netsim.ion_requests", c("net.ion.requests")},
      {"netsim.ion_bytes", c("net.ion.bytes")},
      {"storsim.requests", c("stor.requests")},
      {"storsim.bytes_written", c("stor.bytes_written")},
      {"storsim.active_streams_max", gauge(stack, "stor.active_streams.max")},
      {"fssim.token_acquires", c("fs.token.acquires")},
      {"fssim.token_revocations", c("fs.token.revocations")},
      {"fssim.size_token_bounces", c("fs.token.size_bounces")},
      {"fssim.creates", static_cast<double>(stack.fsys.createsIssued())},
      {"fssim.writes", static_cast<double>(stack.fsys.writesIssued())},
  };
}

/// Simulated rank-seconds per blocked phase of the checkpoint.
void addAttribution(const obs::AttributionEngine::Report& r,
                    std::map<std::string, double>& layer) {
  const auto phase = [&r](obs::Phase p) {
    return r.totals[static_cast<std::size_t>(p)];
  };
  layer["fssim.token_wait_sim_s"] = phase(obs::Phase::kTokenWait);
  layer["fssim.metadata_sim_s"] = phase(obs::Phase::kMetadata);
  layer["mpisim.barrier_sim_s"] = phase(obs::Phase::kBarrier);
  layer["storsim.write_sim_s"] = phase(obs::Phase::kWrite);
  layer["iolib.handoff_sim_s"] =
      phase(obs::Phase::kHandoffSend) + phase(obs::Phase::kHandoffRecv);
}

// ---- Per-layer metric table --------------------------------------------

struct LayerMetric {
  std::string name;
  const char* unit;
};

constexpr const char* kHostKeys[] = {"1pfpp", "coio", "coio2p", "rbio"};
constexpr int kPointsPerWorkload = 3;

/// Every per-layer metric, in output order. Workloads that do not exercise
/// a layer report 0 for it. mpiio and other have no host_s metric: mpiio
/// never wakes an event itself, so the waker-label attribution always
/// charges it 0 (the module table still prints its row), and other is
/// reported as trace.other_share.
std::vector<LayerMetric> layerMetrics() {
  std::vector<LayerMetric> m = {
      {"simcore.events", "count"},
      {"simcore.ns_per_event", "ns"},
      {"simcore.queue_depth_max", "count"},
      {"simcore.pool_slots", "count"},
      {"simcore.host_s", "s"},
      {"netsim.torus_messages", "count"},
      {"netsim.torus_bytes", "B"},
      {"netsim.ion_requests", "count"},
      {"netsim.ion_bytes", "B"},
      {"netsim.host_s", "s"},
      {"storsim.requests", "count"},
      {"storsim.bytes_written", "B"},
      {"storsim.active_streams_max", "count"},
      {"storsim.write_sim_s", "sim_rank_s"},
      {"storsim.host_s", "s"},
      {"fssim.token_acquires", "count"},
      {"fssim.token_revocations", "count"},
      {"fssim.size_token_bounces", "count"},
      {"fssim.token_wait_sim_s", "sim_rank_s"},
      {"fssim.creates", "count"},
      {"fssim.writes", "count"},
      {"fssim.metadata_sim_s", "sim_rank_s"},
      {"fssim.host_s", "s"},
      {"mpisim.barrier_sim_s", "sim_rank_s"},
      {"mpisim.host_s", "s"},
      {"iolib.host_s", "s"},
      {"iolib.outside_loop_s", "s"},
      {"iolib.handoff_sim_s", "sim_rank_s"},
      {"iolib.paper_err", "ln_ratio"},
  };
  for (int i = 0; i < kPointsPerWorkload; ++i) {
    const std::string key = format("iolib.p%d.", i);
    m.push_back({key + "setup_s", "s"});
    m.push_back({key + "sim_makespan_s", "sim_s"});
    m.push_back({key + "sim_gbs", "GB/s"});
    m.push_back({key + "restart_sim_makespan_s", "sim_s"});
  }
  for (const char* host : kHostKeys)
    for (const char* call : {"write_s", "verify_s", "read_s"})
      m.push_back({std::string("hostio.") + host + "." + call, "s"});
  m.push_back({"hostio.max_handoff_s", "s"});
  m.push_back({"iofmt.crc_gbs", "GB/s"});
  m.push_back({"trace.other_share", "ratio"});
  m.push_back({"trace.unattributed_share", "ratio"});
  m.push_back({"trace.overhead_s", "s"});
  m.push_back({"trace.overhead_share", "ratio"});
  return m;
}

void emitLayerMetrics(const std::map<std::string, double>& values,
                      Report& report) {
  for (const LayerMetric& m : layerMetrics()) {
    const auto it = values.find(m.name);
    report.metrics.push_back(
        {m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
}

void emitEndToEnd(double setupS, double ckptS, double restartS, double wallS,
                  Report& report) {
  report.metrics.push_back({"setup_s", setupS, "s"});
  report.metrics.push_back({"ckpt_s", ckptS, "s"});
  report.metrics.push_back({"restart_s", restartS, "s"});
  report.metrics.push_back({"wall_s", wallS, "s"});
  report.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
}

/// "ckpt_s per pass: 8.01 8.52" — the samples behind a median.
std::string perPass(const char* what, const std::vector<double>& values) {
  std::string line = std::string(what) + " per pass:";
  for (double v : values) line += format(" %.4f", v);
  return line;
}

void failOp(Report& report, const std::string& why) {
  ++report.failed;
  report.correct = false;
  report.notes.push_back("FAILED " + why);
}

/// Set-up is measured in its own rounds before the passes: it is short,
/// so its median needs more samples than the passes give.
constexpr int kSetupRounds = 9;

/// Every median is over at least this many passes, and a run always
/// repeats a pass, so checkRepeat compares exact counts on every run.
constexpr int kMinPasses = 3;

/// Run kMinPasses passes, then keep starting passes while the next one, as
/// long as the last, still ends within the budget. A slow machine can so
/// overrun `seconds` by up to kMinPasses passes.
template <typename Pass>
int runPasses(double seconds, Pass&& pass) {
  const auto start = Clock::now();
  int passes = 0;
  double last = 0;
  do {
    const auto t0 = Clock::now();
    pass();
    last = secondsSince(t0);
    ++passes;
  } while (passes < kMinPasses || secondsSince(start) + last <= seconds);
  return passes;
}

// ---- Simulated workloads -----------------------------------------------

std::string countsLine(const SimPoint& p, std::uint64_t seed,
                       const PointCounts& c) {
  return format(
      "counts seed=%llu %s: events=%llu restart_events=%llu "
      "token_revocations=%llu makespan=%.17g restart_makespan=%.17g",
      static_cast<unsigned long long>(seed), p.label.c_str(),
      static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.restartEvents),
      static_cast<unsigned long long>(c.revocations), c.makespan,
      c.restartMakespan);
}

/// Mean |ln(simulated GB/s / paper GB/s)| over the points with a Fig. 5
/// value: the log of the geometric-mean fold error.
double paperErr(const std::vector<SimPoint>& points,
                const std::vector<PointRun>& runs) {
  double sum = 0;
  int n = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].paperGbs <= 0 || runs[i].simGbs <= 0) continue;
    sum += std::fabs(std::log(runs[i].simGbs / points[i].paperGbs));
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

std::vector<double> simSetupRounds(const std::vector<SimPoint>& points,
                                   std::uint64_t seed,
                                   std::vector<std::vector<double>>& perPoint) {
  perPoint.assign(points.size(), {});
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    double total = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      iolib::SimStackOptions opt;
      opt.seed = seed;
      opt.simcheck = bgckpt::sim::SimCheckMode::kOff;
      const auto t0 = Clock::now();
      auto stack = std::make_unique<iolib::SimStack>(points[i].np, opt);
      const double dt = secondsSince(t0);
      stack.reset();  // teardown is not set-up
      perPoint[i].push_back(dt);
      total += dt;
    }
    rounds.push_back(total);
  }
  return rounds;
}

/// One pass over every point; records failures and returns the runs.
std::vector<PointRun> simPass(const std::vector<SimPoint>& points,
                              std::uint64_t seed, SpanLog& log, Probe probe,
                              Report& report) {
  std::vector<PointRun> runs;
  for (const SimPoint& p : points) {
    runs.push_back(runSimPoint(p, seed, log, probe));
    const PointRun& run = runs.back();
    report.attempted += static_cast<std::uint64_t>(run.operations);
    for (const std::string& e : run.errors) failOp(report, e);
  }
  return runs;
}

/// Compare a pass's exact counts against the reference pass.
void checkRepeat(const std::vector<SimPoint>& points, std::uint64_t seed,
                 const std::vector<PointRun>& reference,
                 const std::vector<PointRun>& runs, const char* what,
                 Report& report) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (runs[i].counts == reference[i].counts) continue;
    report.correct = false;
    report.notes.push_back(std::string("NONDETERMINISTIC ") + what + " " +
                           countsLine(points[i], seed, runs[i].counts));
  }
}

/// The traced run alternates this many untraced and LayerClock passes; the
/// tracing overhead is the median of the pairs' differences, so one slow
/// pass does not set it.
constexpr int kOverheadPairs = 3;

/// trace.overhead_* from pairs (untraced[k], traced[k]) run back to back.
void addOverhead(const std::vector<double>& untraced,
                 const std::vector<double>& traced,
                 std::map<std::string, double>& layer, Report& report) {
  std::vector<double> diff, share;
  std::string line = "tracing overhead per pair (traced - untraced s):";
  for (std::size_t k = 0; k < traced.size(); ++k) {
    diff.push_back(traced[k] - untraced[k]);
    share.push_back(diff.back() / untraced[k]);
    line += format(" %.3f-%.3f", traced[k], untraced[k]);
  }
  layer["trace.overhead_s"] = median(diff);
  layer["trace.overhead_share"] = median(share);
  report.notes.push_back(line);
  report.notes.push_back(format("tracing overhead: median %.3f s (%+.1f%%)",
                                layer["trace.overhead_s"],
                                100.0 * layer["trace.overhead_share"]));
}

void runSimWorkload(const Options& opt, Report& report) {
  const std::vector<SimPoint> points = simPoints(opt.workload);
  std::vector<std::vector<double>> setupPerPoint;
  const std::vector<double> setupRounds =
      simSetupRounds(points, opt.seed, setupPerPoint);

  SpanLog quiet(false);
  std::vector<PointRun> first;
  std::vector<double> ckpt, restart, wall;
  const auto pass = [&] {
    const auto t0 = Clock::now();
    std::vector<PointRun> runs =
        simPass(points, opt.seed, quiet, Probe::kNone, report);
    wall.push_back(secondsSince(t0));
    double c = 0, r = 0;
    for (const PointRun& run : runs) {
      c += run.ckptS;
      r += run.restartS;
    }
    ckpt.push_back(c);
    restart.push_back(r);
    if (first.empty())
      first = std::move(runs);
    else
      checkRepeat(points, opt.seed, first, runs, "between passes", report);
  };

  if (!opt.trace) {
    const int passes = runPasses(opt.seconds, pass);
    for (std::size_t i = 0; i < points.size(); ++i)
      report.notes.push_back(countsLine(points[i], opt.seed, first[i].counts));
    report.notes.push_back(format("paper_err=%.17g passes=%d",
                                  paperErr(points, first), passes));
    report.notes.push_back(perPass("ckpt_s", ckpt));
    report.notes.push_back(perPass("wall_s", wall));
    emitEndToEnd(median(setupRounds), median(ckpt), median(restart),
                 median(wall), report);
    return;
  }

  // Traced run: kOverheadPairs untraced passes, each followed by one with a
  // LayerClock on every stack (host time per module; the first also logs
  // spans), then one with an AttributionSink (simulated time per phase).
  // Counts must agree exactly.
  SpanLog log(true);
  std::vector<PointRun> traced;
  std::vector<double> tracedWall;
  for (int k = 0; k < kOverheadPairs; ++k) {
    pass();
    const auto t0 = Clock::now();
    std::vector<PointRun> runs;
    {
      SpanLog discard(true);  // later pairs pay for spans but keep none
      SpanLog& into = k == 0 ? log : discard;
      ScopedSpan all(into,
                     std::string("workload ") + workloadName(opt.workload));
      runs = simPass(points, opt.seed, into, Probe::kLayerClock, report);
    }
    tracedWall.push_back(secondsSince(t0));
    checkRepeat(points, opt.seed, first, runs, "layer clock vs untraced",
                report);
    if (k == 0) traced = std::move(runs);
  }
  const std::vector<PointRun> attributed =
      simPass(points, opt.seed, quiet, Probe::kAttribution, report);
  checkRepeat(points, opt.seed, first, attributed, "attribution vs untraced",
              report);

  std::map<std::string, double> layer;
  ModuleTimes modules;
  double spanS = 0;
  std::map<std::string, LayerClock::LabelStat> labels;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointRun& run = traced[i];
    report.notes.push_back(countsLine(points[i], opt.seed, run.counts));
    for (const auto& [name, value] : attributed[i].layer) {
      const bool isMax = name == "simcore.queue_depth_max" ||
                         name == "simcore.pool_slots" ||
                         name == "storsim.active_streams_max";
      layer[name] = isMax ? std::max(layer[name], value) : layer[name] + value;
    }
    modules += run.modules;
    spanS += run.ckptS + run.restartS;
    for (const auto& l : run.labels) {
      auto& merged = labels[l.label];
      merged.label = l.label;
      merged.module = l.module;
      merged.events += l.events;
      merged.seconds += l.seconds;
    }
    const std::string key = format("iolib.p%zu.", i);
    layer[key + "setup_s"] = median(setupPerPoint[i]);
    layer[key + "sim_makespan_s"] = run.counts.makespan;
    layer[key + "sim_gbs"] = run.simGbs;
    layer[key + "restart_sim_makespan_s"] = run.counts.restartMakespan;
  }
  double untracedWork = 0;
  for (const PointRun& run : first) untracedWork += run.ckptS + run.restartS;
  layer["simcore.ns_per_event"] =
      layer["simcore.events"] > 0 ? untracedWork / layer["simcore.events"] * 1e9
                                  : 0.0;
  for (int m = 0; m < kNumModules; ++m)
    layer[std::string(moduleName(static_cast<Module>(m))) + ".host_s"] =
        modules.seconds[static_cast<std::size_t>(m)];
  layer["iolib.outside_loop_s"] = modules.outsideLoopSeconds;
  layer["iolib.paper_err"] = paperErr(points, traced);
  const double charged = modules.total();
  layer["trace.other_share"] =
      charged > 0
          ? modules.seconds[static_cast<std::size_t>(Module::kOther)] / charged
          : 0.0;
  layer["trace.unattributed_share"] =
      spanS > 0 ? (spanS - charged) / spanS : 0.0;
  addOverhead(wall, tracedWall, layer, report);

  report.notes.push_back(format(
      "host time by module (checkpoint + restart calls, traced): "
      "%.3f s of %.3f s attributed",
      charged, spanS));
  report.notes.push_back(
      format("  %-8s %10s %7s %12s %9s", "module", "host_s", "share",
             "events", "ns/event"));
  for (int m = 0; m < kNumModules; ++m) {
    const auto i = static_cast<std::size_t>(m);
    report.notes.push_back(format(
        "  %-8s %10.4f %6.1f%% %12llu %9.1f",
        moduleName(static_cast<Module>(m)), modules.seconds[i],
        charged > 0 ? 100.0 * modules.seconds[i] / charged : 0.0,
        static_cast<unsigned long long>(modules.events[i]),
        modules.events[i] > 0
            ? modules.seconds[i] / static_cast<double>(modules.events[i]) * 1e9
            : 0.0));
  }
  for (const auto& [label, stat] : labels)
    if (stat.module == Module::kOther)
      report.notes.push_back(
          format("  other label: %s (%llu events)", label.c_str(),
                 static_cast<unsigned long long>(stat.events)));
  report.notes.push_back(format("paper_err=%.17g", layer["iolib.paper_err"]));

  const std::string path = opt.workDir + "/spans-" +
                           workloadName(opt.workload) + ".json";
  if (log.writeJson(path)) report.notes.push_back("spans: " + path);
  emitLayerMetrics(layer, report);
}

// ---- Host workload -----------------------------------------------------

constexpr hostio::HostStrategy kHostStrategies[] = {
    hostio::HostStrategy::k1Pfpp, hostio::HostStrategy::kCoIo,
    hostio::HostStrategy::kCoIoTwoPhase, hostio::HostStrategy::kRbIo};

/// 6 field blocks of 5 MiB per rank: 120 MiB per checkpoint.
constexpr std::uint64_t kHostFieldBytes = 5ull << 20;

hostio::HostSpec hostSpec(std::uint64_t seed) {
  hostio::HostSpec spec;
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = kHostFieldBytes;
  spec.iteration = seed;
  spec.simTime = static_cast<double>(seed % 100000) * 1e-3;
  return spec;
}

/// Removes its directory tree when the run ends, however it ends.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

struct HostCycle {
  double writeS = 0, verifyS = 0, readS = 0, handoffS = 0;
};

struct HostPass {
  HostCycle cycles[std::size(kHostStrategies)];
  double wallS = 0;
};

HostPass hostPass(const hostio::HostSpec& base,
                  const std::vector<hostio::HostRankData>& data,
                  const std::string& dir, SpanLog& log, Report& report) {
  HostPass pass;
  const auto t0 = Clock::now();
  for (std::size_t s = 0; s < std::size(kHostStrategies); ++s) {
    ScopedSpan cycle(log, std::string("cycle ") + kHostKeys[s]);
    ++report.attempted;
    hostio::HostSpec spec = base;
    spec.directory = dir + "/" + kHostKeys[s];
    std::filesystem::create_directories(spec.directory);
    hostio::HostConfig config;
    config.strategy = kHostStrategies[s];
    config.nf = 1;
    HostCycle& c = pass.cycles[s];
    std::string error;
    try {
      ScopedSpan w(log, "hostio::writeCheckpoint");
      const hostio::HostRunResult r =
          hostio::writeCheckpoint(spec, config, data);
      c.writeS = w.stop();
      c.handoffS = r.maxHandoffSeconds;
    } catch (const std::exception& e) {
      error = std::string("writeCheckpoint threw: ") + e.what();
    }
    if (error.empty())
      error = checkHostCheckpoint(spec, data, log, &c.verifyS, &c.readS);
    if (!error.empty())
      failOp(report, std::string(kHostKeys[s]) + ": " + error);
    std::error_code ec;
    std::filesystem::remove_all(spec.directory, ec);
  }
  pass.wallS = secondsSince(t0);
  return pass;
}

double crcGbs(const hostio::HostRankData& rank, SpanLog& log) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s(log, "iofmt::crc32");
    std::uint32_t crc = 0;  // chained over the fields, as a file's CRC pass
    std::uint64_t bytes = 0;
    for (const auto& field : rank.fields) {
      crc = bgckpt::iofmt::crc32(field, crc);
      bytes += field.size();
    }
    const double dt = s.stop();
    rates.push_back(static_cast<double>(bytes) / dt / 1e9);
  }
  return median(rates);
}

void runHostWorkload(const Options& opt, Report& report) {
  const hostio::HostSpec spec = hostSpec(opt.seed);
  std::vector<double> setupRounds;
  std::vector<hostio::HostRankData> data;
  for (int r = 0; r < kSetupRounds; ++r) {
    const auto t0 = Clock::now();
    data = hostPayload(spec, opt.seed);
    setupRounds.push_back(secondsSince(t0));
  }
  const ScratchDir dir(opt.workDir + "/host-ckpt-" +
                       std::to_string(::getpid()));

  SpanLog quiet(false);
  std::vector<double> ckpt, restart, wall;
  const auto pass = [&] {
    const HostPass p = hostPass(spec, data, dir.path, quiet, report);
    double w = 0, r = 0;
    for (const HostCycle& c : p.cycles) {
      w += c.writeS;
      r += c.verifyS + c.readS;
    }
    ckpt.push_back(w);
    restart.push_back(r);
    wall.push_back(p.wallS);
  };

  if (!opt.trace) {
    const int n = runPasses(opt.seconds, pass);
    report.notes.push_back(format("passes=%d", n));
    report.notes.push_back(perPass("ckpt_s", ckpt));
    report.notes.push_back(perPass("restart_s", restart));
    emitEndToEnd(median(setupRounds), median(ckpt), median(restart),
                 median(wall), report);
    return;
  }

  // Traced run: kOverheadPairs untraced passes, each followed by one that
  // records spans (the first pass's spans are kept and written).
  SpanLog log(true);
  HostPass traced;
  std::vector<double> tracedWall;
  double crc = 0;
  for (int k = 0; k < kOverheadPairs; ++k) {
    pass();
    SpanLog discard(true);
    SpanLog& into = k == 0 ? log : discard;
    ScopedSpan all(into, "workload host-ckpt");
    const HostPass p = hostPass(spec, data, dir.path, into, report);
    tracedWall.push_back(p.wallS);
    if (k == 0) {
      traced = p;
      crc = crcGbs(data.front(), log);
    }
  }
  std::map<std::string, double> layer;
  for (std::size_t s = 0; s < std::size(kHostStrategies); ++s) {
    const HostCycle& c = traced.cycles[s];
    const std::string key = std::string("hostio.") + kHostKeys[s] + ".";
    layer[key + "write_s"] = c.writeS;
    layer[key + "verify_s"] = c.verifyS;
    layer[key + "read_s"] = c.readS;
    if (kHostStrategies[s] == hostio::HostStrategy::kRbIo)
      layer["hostio.max_handoff_s"] = c.handoffS;
    report.notes.push_back(format(
        "  %-7s write %.4f s  verify %.4f s  read %.4f s", kHostKeys[s],
        c.writeS, c.verifyS, c.readS));
  }
  layer["iofmt.crc_gbs"] = crc;
  report.notes.push_back(format("crc32 %.3f GB/s", crc));
  addOverhead(wall, tracedWall, layer, report);
  const std::string path = opt.workDir + "/spans-host-ckpt.json";
  if (log.writeJson(path)) report.notes.push_back("spans: " + path);
  emitLayerMetrics(layer, report);
}

}  // namespace

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kSharedFile: return "shared-file";
    case Workload::kManyFiles: return "many-files";
    case Workload::kHostCkpt: return "host-ckpt";
  }
  return "?";
}

bool parseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kSharedFile, Workload::kManyFiles,
                     Workload::kHostCkpt}) {
    if (name == workloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<SimPoint> simPoints(Workload w) {
  using iolib::RestartMode;
  using iolib::StrategyConfig;
  const auto point = [](std::string label, int np, StrategyConfig cfg,
                        RestartMode mode, int groupSize, double paper) {
    return SimPoint{std::move(label), np, std::move(cfg),
                    iolib::RestartConfig{mode, groupSize}, paper};
  };
  switch (w) {
    case Workload::kSharedFile:
      // Every rank reads its blocks back from the one shared file.
      return {
          point("np=16384 coIO nf=1", 16384, StrategyConfig::coIo(1),
                RestartMode::kDirect, 16384, 4.5),
          point("np=32768 coIO nf=1", 32768, StrategyConfig::coIo(1),
                RestartMode::kDirect, 32768, 5.0),
          point("np=32768 rbIO 64:1 nf=1", 32768,
                StrategyConfig::rbIo(64, false), RestartMode::kDirect, 32768,
                5.0),
      };
    case Workload::kManyFiles:
      return {
          point("np=16384 1PFPP", 16384, StrategyConfig::onePfpp(),
                RestartMode::kDirect, 1, 0.15),
          point("np=32768 coIO np:nf=64:1", 32768,
                StrategyConfig::coIo(32768 / 64), RestartMode::kLeaderScatter,
                64, 12.5),
          point("np=32768 rbIO 64:1 nf=ng", 32768,
                StrategyConfig::rbIo(64, true), RestartMode::kLeaderScatter,
                64, 13.0),
      };
    case Workload::kHostCkpt:
      return {};
  }
  return {};
}

PointRun runSimPoint(const SimPoint& p, std::uint64_t seed, SpanLog& log,
                     Probe probe) {
  PointRun run;
  ScopedSpan pointSpan(log, "point " + p.label);
  const iolib::CheckpointSpec spec =
      iolib::CheckpointSpec::nekcemWeakScaling(p.np);
  iolib::SimStackOptions options;
  options.seed = seed;
  options.simcheck = bgckpt::sim::SimCheckMode::kOff;
  std::unique_ptr<iolib::SimStack> stack;
  {
    ScopedSpan s(log, "iolib::SimStack");
    stack = std::make_unique<iolib::SimStack>(p.np, options);
  }
  std::shared_ptr<obs::AttributionSink> attribution;
  std::unique_ptr<LayerClock> clock;
  if (probe == Probe::kAttribution) {
    attribution = std::make_shared<obs::AttributionSink>();
    stack->obs.addSink(attribution);
  } else if (probe == Probe::kLayerClock) {
    clock = std::make_unique<LayerClock>(stack->sched, stack->obs);
  }
  const auto fail = [&run, &p](const std::string& why) {
    run.errors.push_back(p.label + ": " + why);
  };

  ++run.operations;
  iolib::CheckpointResult ckpt;
  try {
    ScopedSpan s(log, "iolib::runCheckpoint");
    if (clock) clock->beginSpan();
    ckpt = iolib::runCheckpoint(*stack, spec, p.cfg);
    run.ckptS = s.stop();
  } catch (const std::exception& e) {
    fail(std::string("runCheckpoint threw: ") + e.what());
    return run;
  }
  run.counts.events = stack->sched.eventsProcessed();
  run.counts.revocations = stack->fsys.totalRevocations();
  run.counts.makespan = ckpt.makespan;
  run.simGbs = ckpt.bandwidth / 1e9;
  if (clock) run.ckptModules = clock->times();
  if (const std::string why = checkCheckpoint(p, *stack, spec, ckpt);
      !why.empty())
    fail("checkpoint: " + why);
  if (attribution)
    addAttribution(attribution->engine().compute(stack->sched.now()),
                   run.layer);

  ++run.operations;
  try {
    ScopedSpan s(log, "iolib::runRestart");
    if (clock) clock->beginSpan();
    const iolib::RestartResult r = iolib::runRestart(*stack, spec, p.restart);
    run.restartS = s.stop();
    run.counts.restartEvents =
        stack->sched.eventsProcessed() - run.counts.events;
    run.counts.restartMakespan = r.makespan;
    if (r.logicalBytes != ckpt.logicalBytes)
      fail(format("restart read %llu bytes, the checkpoint wrote %llu",
                  static_cast<unsigned long long>(r.logicalBytes),
                  static_cast<unsigned long long>(ckpt.logicalBytes)));
  } catch (const std::exception& e) {
    fail(std::string("runRestart threw: ") + e.what());
  }

  for (auto& [name, value] :
       layerCounters(*stack, stack->sched.eventsProcessed()))
    run.layer[name] = value;
  if (clock) {
    run.modules = clock->times();
    run.labels = clock->labels();
    if (!clock->drained())
      fail("layer clock lost track of the event queue");
  }
  return run;
}

// ---- Host checkpoints --------------------------------------------------

std::vector<hostio::HostRankData> hostPayload(const hostio::HostSpec& spec,
                                              std::uint64_t seed) {
  std::vector<hostio::HostRankData> data(kHostRanks);
  for (int r = 0; r < kHostRanks; ++r) {
    auto& rank = data[static_cast<std::size_t>(r)];
    rank.fields.resize(spec.fieldNames.size());
    for (std::size_t f = 0; f < rank.fields.size(); ++f) {
      // splitmix64 stream per (seed, rank, field).
      std::uint64_t x = seed * 0x9e3779b97f4a7c15ull +
                        static_cast<std::uint64_t>(r) * 0x632be59bd9b4e019ull +
                        f * 0x85157af5ull;
      auto& block = rank.fields[f];
      block.resize(spec.fieldBytesPerRank);
      for (std::size_t i = 0; i < block.size(); i += 8) {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::memcpy(block.data() + i, &z,
                    std::min<std::size_t>(8, block.size() - i));
      }
    }
  }
  return data;
}

std::string checkHostCheckpoint(
    const hostio::HostSpec& spec,
    const std::vector<hostio::HostRankData>& data, SpanLog& log,
    double* verifyS, double* readS) {
  try {
    bool valid = false;
    {
      ScopedSpan s(log, "hostio::verifyCheckpoint");
      valid = hostio::verifyCheckpoint(spec);
      *verifyS = s.stop();
    }
    if (!valid) return "verifyCheckpoint rejected the checkpoint";
    hostio::HostSpec back;
    back.directory = spec.directory;
    back.step = spec.step;
    std::vector<hostio::HostRankData> read;
    {
      ScopedSpan s(log, "hostio::readCheckpoint");
      read = hostio::readCheckpoint(back, static_cast<int>(data.size()));
      *readS = s.stop();
    }
    ScopedSpan s(log, "compare");
    if (back.fieldNames != spec.fieldNames || back.iteration != spec.iteration)
      return "read-back metadata differs from what was written";
    if (read.size() != data.size()) return "read-back rank count differs";
    for (std::size_t r = 0; r < data.size(); ++r)
      if (read[r].fields != data[r].fields)
        return format("rank %zu read back different bytes", r);
    return "";
  } catch (const std::exception& e) {
    return std::string("read-back threw: ") + e.what();
  }
}

Report runWorkload(const Options& opt) {
  Report report;
  std::filesystem::create_directories(opt.workDir);
  if (opt.workload == Workload::kHostCkpt)
    runHostWorkload(opt, report);
  else
    runSimWorkload(opt, report);
  return report;
}

}  // namespace perfbench
