// trace_report: offline analysis of a JSONL trace event log.
//
// Usage:  trace_report <events.jsonl> [--bins N]
//         trace_report --attr <events.jsonl> [--diff <other.jsonl>]
//         trace_report --critpath <run.json> [--diff <other.json>]
//         trace_report --timeline <telemetry.json> [--diff <other.json>]
//         trace_report --waterfall <optrace.json> [--req ID | --diff <other>]
//         trace_report --runtime <runtimeprof.json> [--diff <other.json>]
//
// Default mode reads the event log written alongside a Chrome trace by
// `<bench> --trace <file>` (the `<file>.jsonl` twin), rebuilds the I/O
// profile from the kIo event stream, and prints:
//
//   1. per-layer event/byte totals,
//   2. a span-balance check (every 'B' must have a matching 'E'),
//   3. the Darshan-style job summary (prof::renderReport),
//   4. a write/handoff activity timeline (the Fig. 12 view of the run).
//
// --attr replays the same log through the blocked-time attribution engine
// (obs/attr.hpp) and prints the exclusive per-phase partition; with --diff
// it compares two runs (e.g. rbIO vs coIO) phase by phase. --critpath
// renders the JSON written by `<bench> --critpath <file>`, with the same
// A/B diff option. --timeline renders the sampled-telemetry JSON written
// by `<bench> --telemetry <file>` as per-resource ASCII utilization
// heatmaps plus server-imbalance stats (Jain's index, max/mean skew,
// idle-while-busy); --diff prints an A/B table of totals and imbalance.
// --waterfall renders the per-request causal-trace JSON written by
// `<bench> --optrace <file>`: hop-percentile tables (global and per op),
// the fan-in lineage summary, a p99-localization line, and ASCII hop
// waterfalls for the retained tail (the N slowest requests) or, with
// --req ID, for one chosen request; --diff compares the hop-percentile
// tables of two runs (e.g. rbIO vs coIO). --runtime renders the real-time
// execution profile written by `<bench> --runtime-profile`: per-parallelFor
// job wall times with the critical point and the serial-fraction /
// Amdahl-ceiling analysis, plus the per-point wall records; --diff
// compares two profiles point by point.
//
// --campaign renders the cross-run ledger a `tools/sweep` run wrote: the
// per-strategy bandwidth-vs-np table (the fig5 surface re-derived from
// stored perf records, byte-identical to the benches' own stdout values),
// the best-strategy-per-(np, nf) matrix, and the per-config run list.
// With --diff it lines configs up across two ledgers by config hash (A/B
// across git revs); with --baseline it gates per-config event counts
// against a committed ledger (drift beyond --tolerance fails, exit 1 —
// the perf_compare contract applied across runs).
//
// Both the artifact's "schema" field and its "<file>.manifest.json"
// sidecar (when present) must match this build's schema versions
// (manifest v1 and v2 both read), else exit 2.
//
// The JSONL form keeps timestamps in simulated seconds, so nothing here
// needs to undo the microsecond scaling of the Chrome stream.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/ascii.hpp"
#include "obs/attr.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "obs/runstore.hpp"
#include "obs/runtimeprof.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "profiling/profile.hpp"
#include "profiling/report.hpp"

namespace {

using bgckpt::obs::json::Value;

struct LayerTotals {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  double busySeconds = 0;  // sum of 'X' durations
};

/// TraceEvent::name must outlive the emit; intern replayed names here.
const char* internName(const std::string& name) {
  static std::unordered_set<std::string> pool;
  return pool.insert(name).first->c_str();
}

bool layerFromName(const std::string& cat, bgckpt::obs::Layer* layer) {
  using bgckpt::obs::Layer;
  for (int i = 0; i < bgckpt::obs::kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (cat == bgckpt::obs::layerName(l)) {
      *layer = l;
      return true;
    }
  }
  return false;
}

struct ReplayStats {
  std::uint64_t lines = 0;        // non-empty lines
  std::uint64_t parseErrors = 0;  // not a JSON object, or no known layer
  double horizon = 0;             // max ts + dur over the replayed events
};

/// Replay a JSONL event log into the sinks attached to `hub`, each line as
/// the obs::TraceEvent the live run emitted. Returns false (with a message
/// on stderr) when the file cannot be opened.
bool replayJsonl(const char* path, bgckpt::obs::Observability& hub,
                 ReplayStats* stats) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++stats->lines;
    const auto doc = bgckpt::obs::json::parse(line);
    bgckpt::obs::TraceEvent ev;
    if (!doc || !doc->isObject() ||
        !layerFromName(doc->stringOr("cat", "?"), &ev.layer)) {
      ++stats->parseErrors;
      continue;
    }
    const std::string ph = doc->stringOr("ph", "X");
    ev.phase = ph.empty() ? 'X' : ph[0];
    ev.tid = static_cast<int>(doc->numberOr("tid", 0));
    ev.name = internName(doc->stringOr("name", "?"));
    ev.ts = doc->numberOr("ts", 0);
    ev.dur = doc->numberOr("dur", 0);
    ev.hasBytes = doc->find("bytes") != nullptr;
    ev.bytes = static_cast<std::uint64_t>(doc->numberOr("bytes", 0));
    stats->horizon = std::max(stats->horizon, ev.ts + ev.dur);
    // srclint:allow(obs-emit): a replayed event is already complete; emit is the hub's own layer-mask fan-out to its registered sinks
    hub.emit(ev);
  }
  return true;
}

/// Replay a JSONL event log through the attribution sink. Returns false
/// (with a message on stderr) when the file cannot be read.
bool loadAttribution(const char* path,
                     bgckpt::obs::AttributionEngine::Report* out) {
  bgckpt::obs::Observability hub;
  const bgckpt::obs::AttributionSink& attr = hub.attachAttribution();
  ReplayStats stats;
  if (!replayJsonl(path, hub, &stats)) return false;
  if (stats.parseErrors)
    std::fprintf(stderr, "trace_report: %s: %" PRIu64 " unparseable lines\n",
                 path, stats.parseErrors);
  hub.finalize(stats.horizon);
  *out = attr.report();
  return true;
}

/// The summary's own view of the replayed stream: per-layer totals, span
/// balance (every 'B' needs a matching 'E') and the highest app rank.
class SummarySink final : public bgckpt::obs::TraceSink {
 public:
  void event(const bgckpt::obs::TraceEvent& ev) override {
    const std::string cat = bgckpt::obs::layerName(ev.layer);
    LayerTotals& lt = layers[cat];
    ++lt.events;
    lt.bytes += ev.bytes;
    if (ev.phase == 'B' || ev.phase == 'E') {
      const std::string key =
          cat + "/" + std::to_string(ev.tid) + "/" + ev.name;
      if (ev.phase == 'B') {
        ++openSpans[key];
      } else {
        auto it = openSpans.find(key);
        if (it == openSpans.end() || it->second == 0)
          ++unmatchedEnds;
        else if (--it->second == 0)
          openSpans.erase(it);
      }
    }
    if (ev.phase == 'X') {
      lt.busySeconds += ev.dur;
      if (ev.layer == bgckpt::obs::Layer::kApp)
        maxAppRank = std::max(maxAppRank, ev.tid);
    }
  }

  std::map<std::string, LayerTotals> layers;
  // Open 'B' spans per (layer, tid, name); drained by matching 'E's.
  std::map<std::string, std::uint64_t> openSpans;
  std::uint64_t unmatchedEnds = 0;
  int maxAppRank = -1;
};

int runAttrMode(const char* pathA, const char* pathB) {
  using bgckpt::obs::AttributionEngine;
  using bgckpt::obs::Phase;
  using bgckpt::obs::phaseName;
  AttributionEngine::Report a;
  if (!loadAttribution(pathA, &a)) return 2;
  std::printf("blocked-time attribution: %s\n", pathA);
  std::printf("%zu ranks, horizon %.3f s, partition defect %.3g s\n",
              a.ranks.size(), a.horizon, a.partitionDefect());
  if (pathB == nullptr) {
    const double total = a.horizon * static_cast<double>(a.ranks.size());
    std::printf("\n%-13s %16s %9s\n", "phase", "proc-seconds", "share");
    for (int p = 0; p < bgckpt::obs::kNumPhases; ++p) {
      const double s = a.totals[static_cast<std::size_t>(p)];
      if (s <= 0.0) continue;
      std::printf("%-13s %16.3f %8.2f%%\n", phaseName(static_cast<Phase>(p)),
                  s, total > 0 ? s / total * 100.0 : 0.0);
    }
    std::printf("%-13s %16.3f %8.2f%%\n", "blocked", a.blockedSeconds(),
                total > 0 ? a.blockedSeconds() / total * 100.0 : 0.0);
    return 0;
  }
  AttributionEngine::Report b;
  if (!loadAttribution(pathB, &b)) return 2;
  std::printf("diff against: %s (%zu ranks, horizon %.3f s)\n", pathB,
              b.ranks.size(), b.horizon);
  std::printf("\n%-13s %16s %16s %16s\n", "phase", "A proc-sec", "B proc-sec",
              "A-B");
  for (int p = 0; p < bgckpt::obs::kNumPhases; ++p) {
    const double sa = a.totals[static_cast<std::size_t>(p)];
    const double sb = b.totals[static_cast<std::size_t>(p)];
    if (sa <= 0.0 && sb <= 0.0) continue;
    std::printf("%-13s %16.3f %16.3f %+16.3f\n",
                phaseName(static_cast<Phase>(p)), sa, sb, sa - sb);
  }
  std::printf("%-13s %16.3f %16.3f %+16.3f\n", "blocked", a.blockedSeconds(),
              b.blockedSeconds(), a.blockedSeconds() - b.blockedSeconds());
  if (b.blockedSeconds() > 0)
    std::printf("\nblocked-time ratio A/B: %.2fx\n",
                a.blockedSeconds() / b.blockedSeconds());
  return 0;
}

bool loadJsonFile(const char* path, Value* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string err;
  auto doc = bgckpt::obs::json::parse(text, &err);
  if (!doc || !doc->isObject()) {
    std::fprintf(stderr, "trace_report: %s: %s\n", path,
                 err.empty() ? "not a JSON object" : err.c_str());
    return false;
  }
  *out = *doc;
  return true;
}

/// Load one artifact JSON behind the shared schema gate: the document's
/// "schema" field must be exactly `expectedSchema`, and any
/// "<path>.manifest.json" sidecar must carry a manifest version this build
/// reads (v2, and v1 for pre-ledger artifacts). Every gated mode
/// (--timeline, --waterfall, --runtime, --campaign) funnels through here,
/// and every failure funnels to the same caller exit-2 path. A missing
/// manifest is tolerated (hand-built fixtures, moved files).
bool loadGatedArtifact(const char* path, const char* kind,
                       const char* expectedSchema, Value* out) {
  if (!loadJsonFile(path, out)) return false;
  const std::string schema = out->stringOr("schema", "(none)");
  if (schema != expectedSchema) {
    std::fprintf(stderr,
                 "trace_report: %s: %s schema \"%s\" not supported "
                 "(this build reads \"%s\")\n",
                 path, kind, schema.c_str(), expectedSchema);
    return false;
  }
  const std::string manifestPath = std::string(path) + ".manifest.json";
  if (std::ifstream probe(manifestPath); probe) {
    Value manifest;
    if (!loadJsonFile(manifestPath.c_str(), &manifest)) return false;
    const std::string mv = manifest.stringOr("schema_version", "(none)");
    if (!bgckpt::obs::manifestSchemaSupported(mv)) {
      std::fprintf(stderr,
                   "trace_report: %s: manifest schema \"%s\" not supported "
                   "(this build reads \"%s\" and \"%s\")\n",
                   manifestPath.c_str(), mv.c_str(),
                   bgckpt::obs::kManifestSchemaVersion,
                   bgckpt::obs::kManifestSchemaV1);
      return false;
    }
  }
  return true;
}

/// Pull "seconds" per bucket name out of a critpath "by_kind"/"by_label"
/// array, preserving file order.
std::vector<std::pair<std::string, double>> critBuckets(const Value& doc,
                                                        const char* key) {
  std::vector<std::pair<std::string, double>> out;
  const Value* arr = doc.find(key);
  if (arr == nullptr || !arr->isArray()) return out;
  for (const Value& entry : *arr->array) {
    if (!entry.isObject()) continue;
    std::string name = entry.stringOr("kind", "");
    if (name.empty()) name = entry.stringOr("label", "?");
    out.emplace_back(std::move(name), entry.numberOr("seconds", 0));
  }
  return out;
}

int runCritPathMode(const char* pathA, const char* pathB) {
  Value a;
  if (!loadJsonFile(pathA, &a)) return 2;
  std::printf("critical path: %s\n", pathA);
  std::printf("horizon %.3f s, %.0f events recorded, %.0f path steps, "
              "path %.3f s\n",
              a.numberOr("horizon_seconds", 0), a.numberOr("events_recorded", 0),
              a.numberOr("path_steps", 0), a.numberOr("path_seconds", 0));
  const double pathSecondsA = a.numberOr("path_seconds", 0);
  if (pathB == nullptr) {
    for (const char* key : {"by_kind", "by_label"}) {
      std::printf("\n%-24s %14s %9s\n", key, "seconds", "share");
      for (const auto& [name, seconds] : critBuckets(a, key)) {
        if (seconds <= 0.0) continue;
        std::printf("%-24s %14.6f %8.2f%%\n", name.c_str(), seconds,
                    pathSecondsA > 0 ? seconds / pathSecondsA * 100.0 : 0.0);
      }
    }
    return 0;
  }
  Value b;
  if (!loadJsonFile(pathB, &b)) return 2;
  std::printf("diff against: %s (path %.3f s)\n", pathB,
              b.numberOr("path_seconds", 0));
  for (const char* key : {"by_kind", "by_label"}) {
    std::map<std::string, std::pair<double, double>> merged;
    for (const auto& [name, seconds] : critBuckets(a, key))
      merged[name].first = seconds;
    for (const auto& [name, seconds] : critBuckets(b, key))
      merged[name].second = seconds;
    std::printf("\n%-24s %14s %14s %14s\n", key, "A seconds", "B seconds",
                "A-B");
    for (const auto& [name, ab] : merged) {
      if (ab.first <= 0.0 && ab.second <= 0.0) continue;
      std::printf("%-24s %14.6f %14.6f %+14.6f\n", name.c_str(), ab.first,
                  ab.second, ab.first - ab.second);
    }
  }
  return 0;
}

// ------------------------------------------------------ --timeline mode --

struct ImbalanceCols {
  bool present = false;
  double totalLoad = 0;
  double maxShare = 0;
  double maxOverMean = 0;
  double jain = 1.0;
  double idleWhileBusy = 0;
  int busiest = -1;
};

struct TimelineSeries {
  std::string name;
  std::string kind;
  int instances = 1;
  double totalLoad = 0;  // sum of per-instance totals
  ImbalanceCols imb;
  std::vector<std::vector<double>> heat;  // instances x buckets, dense
};

struct TimelineDoc {
  double dt = 0;
  double horizon = 0;
  std::int64_t buckets = 0;
  std::vector<TimelineSeries> series;
};

/// Load and validate one `--telemetry` export (schema + manifest gate via
/// loadGatedArtifact; mismatches are a hard error, exit 2 upstream, so a
/// stale file never misparses silently).
bool loadTimeline(const char* path, TimelineDoc* out) {
  Value doc;
  if (!loadGatedArtifact(path, "telemetry",
                         bgckpt::obs::Telemetry::kSchemaVersion, &doc))
    return false;
  out->dt = doc.numberOr("bucket_dt", bgckpt::obs::Telemetry::kDefaultDt);
  out->horizon = doc.numberOr("horizon", 0);
  out->buckets = static_cast<std::int64_t>(doc.numberOr("buckets", 0));
  const Value* arr = doc.find("series");
  if (arr == nullptr || !arr->isArray()) {
    std::fprintf(stderr, "trace_report: %s: no \"series\" array\n", path);
    return false;
  }
  for (const Value& sv : *arr->array) {
    if (!sv.isObject()) continue;
    TimelineSeries s;
    s.name = sv.stringOr("name", "?");
    s.kind = sv.stringOr("kind", "gauge");
    s.instances = static_cast<int>(sv.numberOr("instances", 1));
    if (const Value* iv = sv.find("imbalance"); iv && iv->isObject()) {
      s.imb.present = true;
      s.imb.totalLoad = iv->numberOr("total_load", 0);
      s.imb.maxShare = iv->numberOr("max_share", 0);
      s.imb.maxOverMean = iv->numberOr("max_over_mean", 0);
      s.imb.jain = iv->numberOr("jain", 1.0);
      s.imb.idleWhileBusy = iv->numberOr("idle_while_busy_seconds", 0);
      s.imb.busiest = static_cast<int>(iv->numberOr("busiest", -1));
    }
    s.heat.assign(static_cast<std::size_t>(std::max(1, s.instances)),
                  std::vector<double>(
                      static_cast<std::size_t>(std::max<std::int64_t>(
                          out->buckets, 0)),
                      0.0));
    if (const Value* pi = sv.find("per_instance"); pi && pi->isArray()) {
      for (const Value& inst : *pi->array) {
        if (!inst.isObject()) continue;
        const auto idx = static_cast<std::size_t>(inst.numberOr("i", 0));
        if (idx >= s.heat.size()) continue;
        s.totalLoad += inst.numberOr("total", 0);
        const auto first =
            static_cast<std::int64_t>(inst.numberOr("first", 0));
        const Value* rows = inst.find("buckets");
        if (rows == nullptr || !rows->isArray()) continue;
        for (std::size_t r = 0; r < rows->array->size(); ++r) {
          const Value& row = (*rows->array)[r];
          if (!row.isArray() || row.array->empty()) continue;
          // Heat value: gauge rows are [min, mean, max, last], counter and
          // rate rows are [delta, rate] — index 1 is the density either way.
          const std::size_t vi = row.array->size() > 1 ? 1 : 0;
          const auto gi = first + static_cast<std::int64_t>(r);
          if (gi >= 0 && gi < out->buckets)
            s.heat[idx][static_cast<std::size_t>(gi)] =
                (*row.array)[vi].number;
        }
      }
    }
    out->series.push_back(std::move(s));
  }
  return true;
}

/// Cap heatmaps at this many rows; wider instance sets render as grouped
/// ranges (128 servers -> 32 rows of 4, each the group mean).
constexpr int kMaxHeatRows = 32;

void renderSeries(const TimelineSeries& s, double dt, int width) {
  std::printf("\n%s (%s, %d instance%s", s.name.c_str(), s.kind.c_str(),
              s.instances, s.instances == 1 ? "" : "s");
  std::printf(", total %.6g)\n", s.totalLoad);
  std::vector<std::string> labels;
  std::vector<std::vector<double>> rows;
  if (s.instances <= kMaxHeatRows) {
    rows = s.heat;
    for (int i = 0; i < s.instances; ++i)
      labels.push_back(s.instances == 1 ? std::string()
                                        : std::to_string(i));
  } else {
    const int group =
        (s.instances + kMaxHeatRows - 1) / kMaxHeatRows;
    for (int g0 = 0; g0 < s.instances; g0 += group) {
      const int g1 = std::min(g0 + group, s.instances);
      std::vector<double> row(s.heat[0].size(), 0.0);
      for (int i = g0; i < g1; ++i)
        for (std::size_t b = 0; b < row.size(); ++b)
          row[b] += s.heat[static_cast<std::size_t>(i)][b];
      for (double& v : row) v /= static_cast<double>(g1 - g0);
      labels.push_back(std::to_string(g0) + "-" + std::to_string(g1 - 1));
      rows.push_back(std::move(row));
    }
  }
  const char* valueLabel =
      s.kind == "gauge" ? "mean level" : "per-second rate";
  std::printf("%s", bgckpt::analysis::heatmap(labels, rows, dt, valueLabel,
                                              width)
                        .c_str());
  if (s.imb.present)
    std::printf("  imbalance: jain=%.3f max/mean=%.2f max-share=%.1f%% "
                "idle-while-busy=%.1f inst-s (busiest #%d)\n",
                s.imb.jain, s.imb.maxOverMean, s.imb.maxShare * 100.0,
                s.imb.idleWhileBusy, s.imb.busiest);
}

int runTimelineMode(const char* pathA, const char* pathB, int width) {
  TimelineDoc a;
  if (!loadTimeline(pathA, &a)) return 2;
  std::printf("telemetry timeline: %s\n", pathA);
  std::printf("horizon %.3f s, %lld buckets of %.3g s, %zu series\n",
              a.horizon, static_cast<long long>(a.buckets), a.dt,
              a.series.size());
  if (pathB == nullptr) {
    for (const auto& s : a.series) renderSeries(s, a.dt, width);
    return 0;
  }
  TimelineDoc b;
  if (!loadTimeline(pathB, &b)) return 2;
  std::printf("diff against: %s (horizon %.3f s)\n", pathB, b.horizon);
  std::map<std::string, std::pair<const TimelineSeries*,
                                  const TimelineSeries*>> merged;
  for (const auto& s : a.series) merged[s.name].first = &s;
  for (const auto& s : b.series) merged[s.name].second = &s;
  std::printf("\n%-28s %14s %14s %8s %8s %10s %10s\n", "series", "A total",
              "B total", "A jain", "B jain", "A max/mu", "B max/mu");
  for (const auto& [name, ab] : merged) {
    const TimelineSeries* sa = ab.first;
    const TimelineSeries* sb = ab.second;
    std::printf("%-28s %14.6g %14.6g", name.c_str(),
                sa != nullptr ? sa->totalLoad : 0.0,
                sb != nullptr ? sb->totalLoad : 0.0);
    if ((sa != nullptr && sa->imb.present) ||
        (sb != nullptr && sb->imb.present)) {
      std::printf(" %8.3f %8.3f %10.2f %10.2f",
                  sa != nullptr ? sa->imb.jain : 0.0,
                  sb != nullptr ? sb->imb.jain : 0.0,
                  sa != nullptr ? sa->imb.maxOverMean : 0.0,
                  sb != nullptr ? sb->imb.maxOverMean : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}

// ----------------------------------------------------- --waterfall mode --

struct HopRow {
  std::string hop;
  double requests = 0;
  double total = 0;
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct E2eStats {
  double requests = 0;
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct OpTraceDoc {
  Value doc;  // raw document; tail/sampled requests render from it
  double sampleEvery = 1;
  double horizon = 0;
  E2eStats e2e;
  std::vector<HopRow> hops;                              // global table
  std::vector<std::pair<std::string, E2eStats>> opE2e;   // per-op e2e
  std::vector<std::pair<std::string, std::vector<HopRow>>> opHops;
};

std::vector<HopRow> parseHopRows(const Value& parent) {
  std::vector<HopRow> out;
  const Value* arr = parent.find("hops");
  if (arr == nullptr || !arr->isArray()) return out;
  for (const Value& hv : *arr->array) {
    if (!hv.isObject()) continue;
    HopRow r;
    r.hop = hv.stringOr("hop", "?");
    r.requests = hv.numberOr("requests", 0);
    r.total = hv.numberOr("total_seconds", 0);
    r.p50 = hv.numberOr("p50", 0);
    r.p95 = hv.numberOr("p95", 0);
    r.p99 = hv.numberOr("p99", 0);
    r.max = hv.numberOr("max", 0);
    out.push_back(std::move(r));
  }
  return out;
}

E2eStats parseE2e(const Value& parent) {
  E2eStats s;
  const Value* ev = parent.find("e2e");
  if (ev == nullptr || !ev->isObject()) return s;
  s.requests = ev->numberOr("requests", 0);
  s.mean = ev->numberOr("mean", 0);
  s.p50 = ev->numberOr("p50", 0);
  s.p95 = ev->numberOr("p95", 0);
  s.p99 = ev->numberOr("p99", 0);
  s.max = ev->numberOr("max", 0);
  return s;
}

/// Load and validate one `--optrace` export, behind the same gate as
/// loadTimeline.
bool loadOpTrace(const char* path, OpTraceDoc* out) {
  if (!loadGatedArtifact(path, "optrace",
                         bgckpt::obs::OpTracer::kSchemaVersion, &out->doc))
    return false;
  out->sampleEvery = out->doc.numberOr("sample_every", 1);
  out->horizon = out->doc.numberOr("horizon", 0);
  out->e2e = parseE2e(out->doc);
  out->hops = parseHopRows(out->doc);
  if (const Value* ops = out->doc.find("ops"); ops && ops->isArray()) {
    for (const Value& ov : *ops->array) {
      if (!ov.isObject()) continue;
      const std::string op = ov.stringOr("op", "?");
      out->opE2e.emplace_back(op, parseE2e(ov));
      out->opHops.emplace_back(op, parseHopRows(ov));
    }
  }
  return true;
}

void printHopTable(const std::vector<HopRow>& hops) {
  std::printf("%-14s %10s %12s %10s %10s %10s %10s\n", "hop", "requests",
              "total-sec", "p50", "p95", "p99", "max");
  for (const HopRow& r : hops)
    std::printf("%-14s %10.0f %12.3f %10.4g %10.4g %10.4g %10.4g\n",
                r.hop.c_str(), r.requests, r.total, r.p50, r.p95, r.p99,
                r.max);
}

/// Print which hops dominate the e2e p99: the smallest prefix of hops
/// (sorted by p99 contribution) whose per-request p99 totals cover >= 80%
/// of the end-to-end p99, i.e. where the tail latency actually lives.
void printLocalization(const std::string& scope,
                       const std::vector<HopRow>& hops, double e2eP99) {
  if (e2eP99 <= 0 || hops.empty()) return;
  std::vector<const HopRow*> order;
  for (const HopRow& r : hops) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const HopRow* a, const HopRow* b) {
                     return a->p99 > b->p99;
                   });
  double cum = 0;
  std::string names;
  for (const HopRow* r : order) {
    if (r->p99 <= 0) break;
    cum += r->p99;
    if (!names.empty()) names += " + ";
    names += r->hop;
    if (cum >= 0.8 * e2eP99 || names.size() > 60) break;
  }
  std::printf("p99 localization (%s): %s = %.0f%% of e2e p99 (%.4g s)\n",
              scope.c_str(), names.c_str(), cum / e2eP99 * 100.0, e2eP99);
}

/// Render one traced request's hop waterfall from its exported spans.
void renderRequest(const Value& req, int width) {
  const double t0 = req.numberOr("t0", 0);
  const double e2e = req.numberOr("e2e", 0);
  std::printf("\nrequest %lld: op=%s rank=%d offset=%.0f bytes=%.0f "
              "t0=%.4f e2e=%.6g s",
              static_cast<long long>(req.numberOr("id", -1)),
              req.stringOr("op", "?").c_str(),
              static_cast<int>(req.numberOr("rank", -1)),
              req.numberOr("offset", 0), req.numberOr("bytes", 0), t0, e2e);
  if (const Value* fi = req.find("fan_in"); fi != nullptr)
    std::printf(" fan-in=%d", static_cast<int>(fi->number));
  if (const Value* pv = req.find("parent"); pv != nullptr)
    std::printf(" parent=%lld", static_cast<long long>(pv->number));
  if (req.find("unfinished") != nullptr) std::printf(" UNFINISHED");
  std::printf("\n");
  std::vector<bgckpt::analysis::WaterfallSpan> spans;
  if (const Value* sv = req.find("spans"); sv && sv->isArray()) {
    for (const Value& span : *sv->array) {
      if (!span.isObject()) continue;
      bgckpt::analysis::WaterfallSpan w;
      w.label = span.stringOr("hop", "?");
      w.start = span.numberOr("t0", 0);
      w.dur = span.numberOr("dur", 0);
      w.bytes = static_cast<std::uint64_t>(span.numberOr("bytes", 0));
      spans.push_back(std::move(w));
    }
  }
  std::printf("%s",
              bgckpt::analysis::waterfall(spans, t0, t0 + e2e, width).c_str());
}

/// Find a retained request (tail first, then sampled) by trace id.
const Value* findRequest(const Value& doc, long long id) {
  for (const char* key : {"tail", "sampled"}) {
    const Value* arr = doc.find(key);
    if (arr == nullptr || !arr->isArray()) continue;
    for (const Value& req : *arr->array) {
      if (!req.isObject()) continue;
      if (static_cast<long long>(req.numberOr("id", -1)) == id) return &req;
    }
  }
  return nullptr;
}

/// Tail requests rendered by default; --req renders exactly one.
constexpr int kDefaultWaterfalls = 3;

int runWaterfallMode(const char* pathA, const char* pathB, long long reqId,
                     int width) {
  OpTraceDoc a;
  if (!loadOpTrace(pathA, &a)) return 2;
  std::printf("op trace: %s\n", pathA);
  const Value* rv = a.doc.find("requests");
  if (rv != nullptr && rv->isObject())
    std::printf("%.0f requests minted, %.0f completed (%.0f unfinished), "
                "sampled 1 in %.0f (%.0f kept)\n",
                rv->numberOr("minted", 0), rv->numberOr("completed", 0),
                rv->numberOr("unfinished", 0), a.sampleEvery,
                rv->numberOr("sampled", 0));
  std::printf("horizon %.3f s\n", a.horizon);
  std::printf("e2e: mean %.4g, p50 %.4g, p95 %.4g, p99 %.4g, max %.4g s\n",
              a.e2e.mean, a.e2e.p50, a.e2e.p95, a.e2e.p99, a.e2e.max);
  if (const Value* lv = a.doc.find("lineage"); lv && lv->isObject()) {
    const Value* fv = lv->find("fan_in");
    std::printf("lineage: %.0f aggregates, %.0f edges, fan-in "
                "min/p50/max = %.0f/%.0f/%.0f\n",
                lv->numberOr("aggregates", 0), lv->numberOr("edges", 0),
                fv != nullptr ? fv->numberOr("min", 0) : 0,
                fv != nullptr ? fv->numberOr("p50", 0) : 0,
                fv != nullptr ? fv->numberOr("max", 0) : 0);
  }

  if (pathB != nullptr) {
    OpTraceDoc b;
    if (!loadOpTrace(pathB, &b)) return 2;
    std::printf("diff against: %s (e2e p50 %.4g, p99 %.4g s)\n", pathB,
                b.e2e.p50, b.e2e.p99);
    std::map<std::string, std::pair<const HopRow*, const HopRow*>> merged;
    for (const HopRow& r : a.hops) merged[r.hop].first = &r;
    for (const HopRow& r : b.hops) merged[r.hop].second = &r;
    std::printf("\n%-14s %10s %10s %10s %10s %10s %11s\n", "hop", "A p50",
                "B p50", "A p99", "B p99", "A-B p99", "A-B total");
    for (const auto& [hop, ab] : merged) {
      const HopRow* ra = ab.first;
      const HopRow* rb = ab.second;
      std::printf("%-14s %10.4g %10.4g %10.4g %10.4g %+10.4g %+11.4g\n",
                  hop.c_str(), ra != nullptr ? ra->p50 : 0.0,
                  rb != nullptr ? rb->p50 : 0.0, ra != nullptr ? ra->p99 : 0.0,
                  rb != nullptr ? rb->p99 : 0.0,
                  (ra != nullptr ? ra->p99 : 0.0) -
                      (rb != nullptr ? rb->p99 : 0.0),
                  (ra != nullptr ? ra->total : 0.0) -
                      (rb != nullptr ? rb->total : 0.0));
    }
    std::printf("%-14s %10.4g %10.4g %10.4g %10.4g %+10.4g\n", "(e2e)",
                a.e2e.p50, b.e2e.p50, a.e2e.p99, b.e2e.p99,
                a.e2e.p99 - b.e2e.p99);
    return 0;
  }

  std::printf("\nhop percentiles (per-request hop totals, seconds):\n");
  printHopTable(a.hops);
  for (const auto& [op, hops] : a.opHops) {
    E2eStats opE2e;
    for (const auto& [name, s] : a.opE2e)
      if (name == op) opE2e = s;
    std::printf("\nop \"%s\" (%.0f requests, e2e p50 %.4g, p99 %.4g s):\n",
                op.c_str(), opE2e.requests, opE2e.p50, opE2e.p99);
    printHopTable(hops);
    printLocalization("op " + op, hops, opE2e.p99);
  }
  std::printf("\n");
  printLocalization("all requests", a.hops, a.e2e.p99);

  if (reqId >= 0) {
    const Value* req = findRequest(a.doc, reqId);
    if (req == nullptr) {
      std::fprintf(stderr,
                   "trace_report: request %lld not retained (tail or "
                   "sampled) in %s\n",
                   reqId, pathA);
      return 1;
    }
    renderRequest(*req, width);
    return 0;
  }
  if (const Value* tail = a.doc.find("tail"); tail && tail->isArray()) {
    const auto n = std::min<std::size_t>(tail->array->size(),
                                         kDefaultWaterfalls);
    if (n > 0)
      std::printf("\ntail waterfalls (%zu slowest of %zu retained):\n", n,
                  tail->array->size());
    for (std::size_t i = 0; i < n; ++i)
      renderRequest((*tail->array)[i], width);
  }
  return 0;
}

// ------------------------------------------------------- --runtime mode --

/// Load and validate one `--runtime-profile` export, behind the same gate
/// as loadTimeline.
bool loadRuntimeProf(const char* path, Value* out) {
  return loadGatedArtifact(path, "runtimeprof",
                           bgckpt::obs::kRuntimeProfSchemaVersion, out);
}

/// A region's Amdahl decomposition: the serial fraction is the share of
/// total job work pinned in the single longest job. Independent jobs can
/// never finish before max(longest job, total work / T), so the speedup
/// ceiling is sum / max(maxJob, sum/T) — which tends to 1/s as T grows.
/// Printing the measured speedup next to the ceiling says whether the cap
/// is the workload (one dominant job) or the scheduler.
void renderRegion(const Value& rv) {
  const auto jobs = static_cast<std::size_t>(rv.numberOr("jobs", 0));
  const auto threads = static_cast<unsigned>(rv.numberOr("threads", 1));
  const double wall = rv.numberOr("wall_ns", 0);
  const double sum = rv.numberOr("sum_job_ns", 0);
  const double maxJob = rv.numberOr("max_job_ns", 0);
  std::printf("\nparallel region %lld: %zu jobs on %u threads, wall %.3f s\n",
              static_cast<long long>(rv.numberOr("id", 0)), jobs, threads,
              wall / 1e9);
  struct JobRow {
    std::size_t job = 0;
    unsigned worker = 0;
    double ns = 0;
    std::string label;
  };
  std::vector<JobRow> rows;
  if (const Value* jd = rv.find("jobs_detail"); jd && jd->isArray()) {
    for (const Value& jv : *jd->array) {
      if (!jv.isObject()) continue;
      JobRow r;
      r.job = static_cast<std::size_t>(jv.numberOr("job", 0));
      r.worker = static_cast<unsigned>(jv.numberOr("worker", 0));
      r.ns = jv.numberOr("ns", 0);
      r.label = jv.stringOr("label", "");
      rows.push_back(std::move(r));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const JobRow& a, const JobRow& b) { return a.ns > b.ns; });
  std::printf("%6s %7s %12s %8s  %s\n", "job", "worker", "wall-s", "share",
              "label");
  constexpr std::size_t kMaxJobRows = 20;
  for (std::size_t i = 0; i < rows.size() && i < kMaxJobRows; ++i) {
    const JobRow& r = rows[i];
    std::printf("%6zu %7u %12.3f %7.1f%%  %s\n", r.job, r.worker, r.ns / 1e9,
                sum > 0 ? r.ns / sum * 100.0 : 0.0,
                r.label.empty() ? "(unlabelled)" : r.label.c_str());
  }
  if (rows.size() > kMaxJobRows)
    std::printf("  ... %zu more job(s)\n", rows.size() - kMaxJobRows);
  if (sum > 0 && wall > 0 && threads > 0) {
    const double s = maxJob / sum;
    const double floorNs =
        std::max(maxJob, sum / static_cast<double>(threads));
    const double ceiling = floorNs > 0 ? sum / floorNs : 0.0;
    const double speedup = sum / wall;
    const char* critLabel = rows.empty() || rows.front().label.empty()
                                ? "(unlabelled)"
                                : rows.front().label.c_str();
    std::printf("critical point: %s (%.3f s, %.0f%% of region wall)\n",
                critLabel, maxJob / 1e9, wall > 0 ? maxJob / wall * 100.0 : 0.0);
    std::printf("parallel efficiency: speedup %.2fx of %u threads (%.1f%%); "
                "serial fraction %.2f -> Amdahl ceiling %.2fx\n",
                speedup, threads,
                speedup / static_cast<double>(threads) * 100.0, s, ceiling);
  }
}

int runRuntimeMode(const char* pathA, const char* pathB) {
  Value a;
  if (!loadRuntimeProf(pathA, &a)) return 2;
  std::printf("runtime profile: %s\n", pathA);
  const Value* regionsA = a.find("parallel_regions");
  const Value* pointsA = a.find("points");
  const std::size_t nRegions =
      regionsA != nullptr && regionsA->isArray() ? regionsA->array->size() : 0;
  const std::size_t nPoints =
      pointsA != nullptr && pointsA->isArray() ? pointsA->array->size() : 0;
  std::printf("%zu parallel region(s), %zu point record(s)\n", nRegions,
              nPoints);
  if (a.numberOr("dropped_regions", 0) > 0)
    std::printf("WARNING: %.0f parallel region(s) beyond the retention cap "
                "were not recorded\n",
                a.numberOr("dropped_regions", 0));

  if (pathB != nullptr) {
    Value b;
    if (!loadRuntimeProf(pathB, &b)) return 2;
    std::printf("diff against: %s\n", pathB);
    // Point-by-point wall comparison (labels are deterministic, so they
    // line up across runs whatever the thread counts were).
    std::map<std::string, std::pair<double, double>> points;
    const auto collect = [](const Value& doc, bool first,
                            std::map<std::string, std::pair<double, double>>&
                                out) {
      const Value* arr = doc.find("points");
      if (arr == nullptr || !arr->isArray()) return;
      for (const Value& pv : *arr->array) {
        if (!pv.isObject()) continue;
        auto& slot = out[pv.stringOr("label", "?")];
        (first ? slot.first : slot.second) += pv.numberOr("wall_s", 0);
      }
    };
    collect(a, true, points);
    collect(b, false, points);
    if (!points.empty()) {
      std::printf("\n%-40s %12s %12s %8s\n", "point", "A wall-s", "B wall-s",
                  "B/A");
      for (const auto& [label, ab] : points)
        std::printf("%-40s %12.3f %12.3f %7.2fx\n", label.c_str(), ab.first,
                    ab.second,
                    ab.first > 0 ? ab.second / ab.first : 0.0);
    }
    return 0;
  }

  if (nRegions > 0)
    for (const Value& rv : *regionsA->array)
      if (rv.isObject()) renderRegion(rv);
  if (nPoints > 0) {
    std::printf("\n%-40s %12s %14s %10s\n", "point", "wall-s", "events",
                "Mev/s");
    for (const Value& pv : *pointsA->array) {
      if (!pv.isObject()) continue;
      const double wall = pv.numberOr("wall_s", 0);
      const double events = pv.numberOr("events", 0);
      std::printf("%-40s %12.3f %14.0f %10.2f\n",
                  pv.stringOr("label", "?").c_str(), wall, events,
                  wall > 0 ? events / wall / 1e6 : 0.0);
    }
  }
  return 0;
}

// ------------------------------------------------------ --campaign mode --

using bgckpt::obs::LedgerEntry;
using bgckpt::obs::RunStore;

/// One simulated-checkpoint perf record pulled out of a ledger entry:
/// the row unit of the cross-run bandwidth and best-strategy views.
struct CampaignRun {
  int np = 0;
  int nf = 0;
  std::string strategy;     // "1PFPP" / "coIO" / "rbIO"
  std::string config;       // StrategyConfig::describe() text
  std::string measuredGbs;  // the exact string the bench printed
  double gbsValue = 0;      // parsed from measuredGbs, comparisons only
};

/// Human identity of one stored run: "bench --args" plus the repetition
/// ordinal when the sweep asked for more than one.
std::string runLabel(const LedgerEntry& e) {
  std::string label = e.config.stringOr("bench", "?");
  if (const Value* args = e.config.find("args"); args && args->isArray())
    for (const Value& a : *args->array) {
      label += ' ';
      label += a.string;
    }
  const int rep = static_cast<int>(e.config.numberOr("rep", 1));
  if (rep > 1) label += " [rep " + std::to_string(rep) + "]";
  return label;
}

double perfTotal(const LedgerEntry& e, const char* field) {
  const Value* total = e.perf.find("total");
  return total != nullptr ? total->numberOr(field, 0) : 0;
}

std::vector<CampaignRun> collectSimRuns(
    const std::vector<LedgerEntry>& entries) {
  std::vector<CampaignRun> out;
  for (const LedgerEntry& e : entries) {
    const Value* runs = e.perf.find("runs");
    if (runs == nullptr || !runs->isArray()) continue;
    for (const Value& rv : *runs->array) {
      if (!rv.isObject() || rv.find("strategy") == nullptr) continue;
      CampaignRun r;
      r.np = static_cast<int>(rv.numberOr("np", 0));
      r.nf = static_cast<int>(rv.numberOr("nf", 0));
      r.strategy = rv.stringOr("strategy", "?");
      r.config = rv.stringOr("config", "?");
      r.measuredGbs = rv.stringOr("measured_gbs", "?");
      r.gbsValue = std::strtod(r.measuredGbs.c_str(), nullptr);
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Open a ledger directory, report corrupt entries on stderr, and require
/// at least one intact run.
bool openLedger(const char* dir, std::vector<LedgerEntry>* out) {
  std::vector<std::string> errors;
  *out = RunStore(dir).loadAll(&errors);
  for (const std::string& err : errors)
    std::fprintf(stderr, "trace_report: skipping entry: %s\n", err.c_str());
  if (out->empty()) {
    std::fprintf(stderr, "trace_report: %s: no intact ledger entries\n", dir);
    return false;
  }
  return true;
}

void printLedgerSummary(const std::vector<LedgerEntry>& entries) {
  std::unordered_set<std::string> hashes, revs;
  std::string revList;
  for (const LedgerEntry& e : entries) {
    hashes.insert(e.configHash);
    if (revs.insert(e.gitRev).second) {
      if (!revList.empty()) revList += ", ";
      revList += e.gitRev;
    }
  }
  std::printf("%zu run(s), %zu distinct config(s), revision(s): %s\n",
              entries.size(), hashes.size(), revList.c_str());
}

/// The fig5 surface, re-derived: strategy configuration x np, each cell
/// the stored `measured_gbs` string verbatim. Conflicting duplicates (same
/// config and np, different measurement) render as "varies" rather than
/// silently picking one.
void renderBandwidthTable(const std::vector<CampaignRun>& runs) {
  std::vector<int> nps;
  for (const CampaignRun& r : runs)
    if (std::find(nps.begin(), nps.end(), r.np) == nps.end())
      nps.push_back(r.np);
  std::sort(nps.begin(), nps.end());
  // config text -> np -> cell; file order decides row order (stable).
  std::vector<std::string> order;
  std::map<std::string, std::map<int, std::string>> cells;
  for (const CampaignRun& r : runs) {
    if (cells.find(r.config) == cells.end()) order.push_back(r.config);
    auto& cell = cells[r.config][r.np];
    if (cell.empty())
      cell = r.measuredGbs;
    else if (cell != r.measuredGbs)
      cell = "varies";
  }
  std::printf("\nper-strategy bandwidth vs np (measured):\n%-26s", "strategy");
  for (int np : nps) {
    char head[24];
    std::snprintf(head, sizeof(head), "np=%d", np);
    std::printf(" %14s", head);
  }
  std::printf("\n");
  for (const std::string& config : order) {
    std::printf("%-26s", config.c_str());
    for (int np : nps) {
      const auto& row = cells[config];
      const auto it = row.find(np);
      std::printf(" %14s", it == row.end() ? "-" : it->second.c_str());
    }
    std::printf("\n");
  }
}

/// Which strategy wins each (np, nf) cell, by measured bandwidth.
void renderBestStrategyMatrix(const std::vector<CampaignRun>& runs) {
  std::vector<int> nps, nfs;
  for (const CampaignRun& r : runs) {
    if (std::find(nps.begin(), nps.end(), r.np) == nps.end())
      nps.push_back(r.np);
    if (std::find(nfs.begin(), nfs.end(), r.nf) == nfs.end())
      nfs.push_back(r.nf);
  }
  std::sort(nps.begin(), nps.end());
  std::sort(nfs.begin(), nfs.end());
  std::map<std::pair<int, int>, const CampaignRun*> best;
  for (const CampaignRun& r : runs) {
    const CampaignRun*& slot = best[{r.np, r.nf}];
    if (slot == nullptr || r.gbsValue > slot->gbsValue) slot = &r;
  }
  std::printf("\nbest strategy per (np, nf), by measured bandwidth:\n%-10s",
              "np \\ nf");
  for (int nf : nfs) std::printf(" %12d", nf);
  std::printf("\n");
  for (int np : nps) {
    std::printf("%-10d", np);
    for (int nf : nfs) {
      const auto it = best.find({np, nf});
      std::printf(" %12s",
                  it == best.end() ? "-" : it->second->strategy.c_str());
    }
    std::printf("\n");
  }
}

int runCampaignMode(const char* dir, const char* diffDir,
                    const char* baselineDir, double tolerance) {
  std::vector<LedgerEntry> entries;
  if (!openLedger(dir, &entries)) return 2;
  std::printf("campaign ledger: %s\n", dir);
  printLedgerSummary(entries);

  if (diffDir != nullptr) {
    std::vector<LedgerEntry> other;
    if (!openLedger(diffDir, &other)) return 2;
    std::printf("diff against: %s\n", diffDir);
    printLedgerSummary(other);
    std::map<std::string, const LedgerEntry*> byHashB;
    for (const LedgerEntry& e : other) byHashB[e.configHash] = &e;
    std::unordered_set<std::string> matched;
    std::printf("\n%-44s %10s %10s %8s %12s %12s %8s\n", "config", "A wall-s",
                "B wall-s", "B/A", "A events", "B events", "delta");
    for (const LedgerEntry& a : entries) {
      const auto it = byHashB.find(a.configHash);
      if (it == byHashB.end()) continue;
      matched.insert(a.configHash);
      const LedgerEntry& b = *it->second;
      const double wallA = perfTotal(a, "wall_seconds");
      const double wallB = perfTotal(b, "wall_seconds");
      const double evA = perfTotal(a, "events");
      const double evB = perfTotal(b, "events");
      std::printf("%-44s %10.3f %10.3f %7.2fx %12.0f %12.0f %+7.2f%%\n",
                  runLabel(a).c_str(), wallA, wallB,
                  wallA > 0 ? wallB / wallA : 0.0, evA, evB,
                  evA > 0 ? (evB - evA) / evA * 100.0 : 0.0);
    }
    for (const LedgerEntry& a : entries)
      if (byHashB.find(a.configHash) == byHashB.end())
        std::printf("only in A: %s (rev %s)\n", runLabel(a).c_str(),
                    a.gitRev.c_str());
    for (const LedgerEntry& b : other)
      if (matched.find(b.configHash) == matched.end())
        std::printf("only in B: %s (rev %s)\n", runLabel(b).c_str(),
                    b.gitRev.c_str());
    return 0;
  }

  if (baselineDir != nullptr) {
    // The perf_compare contract applied across runs: simulated event
    // counts are deterministic per (config, code), so any drift beyond
    // the tolerance marks a behavioural change — and fails the gate.
    // Wall time is printed for context only (ledgers cross machines).
    std::vector<LedgerEntry> base;
    if (!openLedger(baselineDir, &base)) return 2;
    std::printf("gating against: %s (tolerance %.1f%%)\n", baselineDir,
                tolerance * 100.0);
    std::map<std::string, const LedgerEntry*> byHash;
    for (const LedgerEntry& e : base) byHash[e.configHash] = &e;
    int failed = 0, skipped = 0, ok = 0;
    std::printf("\n");
    for (const LedgerEntry& cur : entries) {
      const auto it = byHash.find(cur.configHash);
      if (it == byHash.end()) {
        std::printf("campaign gate [SKIP] %s: not in baseline\n",
                    runLabel(cur).c_str());
        ++skipped;
        continue;
      }
      const double evCur = perfTotal(cur, "events");
      const double evBase = perfTotal(*it->second, "events");
      const double drift =
          evBase > 0 ? std::abs(evCur - evBase) / evBase : (evCur > 0 ? 1 : 0);
      const bool pass = drift <= tolerance;
      std::printf("campaign gate [%s] %s: events %.0f -> %.0f (%+.2f%%), "
                  "wall %.3fs -> %.3fs\n",
                  pass ? "OK" : "FAIL", runLabel(cur).c_str(), evBase, evCur,
                  evBase > 0 ? (evCur - evBase) / evBase * 100.0 : 0.0,
                  perfTotal(*it->second, "wall_seconds"),
                  perfTotal(cur, "wall_seconds"));
      pass ? ++ok : ++failed;
    }
    std::printf("\n%d gated: %d ok, %d failed, %d skipped\n",
                ok + failed + skipped, ok, failed, skipped);
    return failed > 0 ? 1 : 0;
  }

  const std::vector<CampaignRun> simRuns = collectSimRuns(entries);
  if (!simRuns.empty()) {
    renderBandwidthTable(simRuns);
    renderBestStrategyMatrix(simRuns);
  }
  std::printf("\nruns:\n");
  for (const LedgerEntry& e : entries)
    std::printf("  %s  rev %-12s exit %d  wall %8.3fs  %s\n", e.key.c_str(),
                e.gitRev.c_str(), e.exitCode, e.wallSeconds,
                runLabel(e).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using bgckpt::obs::cli::Flag;
  using bgckpt::obs::cli::Form;
  using bgckpt::obs::cli::Kind;
  enum Mode {
    kSummary,
    kAttr,
    kCritPath,
    kTimeline,
    kWaterfall,
    kRuntime,
    kCampaign
  };
  int mode = kSummary;
  std::string diff;
  std::string baseline;
  double tolerance = 0.15;
  int bins = 60;
  int width = 72;
  int reqId = -1;
  const auto modeFlag = [&](const char* name, Mode m, const char* help) {
    return Flag(name, Kind::kNone, &mode, help).sets(m);
  };
  bgckpt::obs::cli::Parser cli(
      bgckpt::obs::cli::programName(argv[0]),
      {"<events.jsonl> [--bins N]",
       "--attr <events.jsonl> [--diff <other.jsonl>]",
       "--critpath <run.json> [--diff <other.json>]",
       "--timeline <telemetry.json> [--diff <other.json>] [--width N]",
       "--waterfall <optrace.json> [--req ID | --diff <other.json>]",
       "--runtime <runtimeprof.json> [--diff <other.json>]",
       "--campaign <ledger-dir> [--diff <other-dir> | --baseline <dir> "
       "[--tolerance F]]"},
      {Flag("--bins", Kind::kCount, &bins,
            "time bins of the summary's activity timeline", Form::kSpaced),
       Flag("--width", Kind::kCount, &width,
            "columns of the timeline heatmap and the waterfall",
            Form::kSpaced),
       Flag("--req", Kind::kIndex, &reqId,
            "render the waterfall of this retained request id",
            Form::kSpaced, "ID"),
       modeFlag("--attr", kAttr, "report per-rank blocked-time attribution"),
       modeFlag("--critpath", kCritPath, "report the critical path"),
       modeFlag("--timeline", kTimeline,
                "render the telemetry heatmap and server-imbalance stats"),
       modeFlag("--waterfall", kWaterfall,
                "render per-request hop tables, lineage and tail waterfalls"),
       modeFlag("--runtime", kRuntime,
                "decompose a runtime profile into parallel regions and "
                "point walls"),
       modeFlag("--campaign", kCampaign,
                "roll up a sweep ledger directory"),
       Flag("--baseline", Kind::kPath, &baseline,
            "campaign gate: compare event counts against this ledger",
            Form::kSpaced, "DIR"),
       Flag("--tolerance", Kind::kNonNegative, &tolerance,
            "campaign gate: allowed relative event drift", Form::kSpaced,
            "F"),
       Flag("--diff", Kind::kPath, &diff,
            "compare against a second artifact of the same kind",
            Form::kSpaced)});
  std::vector<std::string> inputs;
  cli.parseOrExit(argc, argv, &inputs);
  if (inputs.size() != 1)
    return cli.usageError(inputs.empty() ? "missing input file"
                                         : "expected one input file");
  const char* path = inputs.front().c_str();
  const char* diffPath = diff.empty() ? nullptr : diff.c_str();
  const char* baselinePath = baseline.empty() ? nullptr : baseline.c_str();
  if (diffPath != nullptr && mode == kSummary)
    return cli.usageError("--diff needs a report mode");
  if (reqId >= 0 && (mode != kWaterfall || diffPath != nullptr))
    return cli.usageError("--req needs --waterfall and no --diff");
  if (baselinePath != nullptr && (mode != kCampaign || diffPath != nullptr))
    return cli.usageError("--baseline needs --campaign and no --diff");
  if (mode == kAttr) return runAttrMode(path, diffPath);
  if (mode == kCritPath) return runCritPathMode(path, diffPath);
  if (mode == kTimeline) return runTimelineMode(path, diffPath, width);
  if (mode == kWaterfall) return runWaterfallMode(path, diffPath, reqId, width);
  if (mode == kRuntime) return runRuntimeMode(path, diffPath);
  if (mode == kCampaign)
    return runCampaignMode(path, diffPath, baselinePath, tolerance);

  bgckpt::obs::Observability hub;
  auto summary = std::make_shared<SummarySink>();
  bgckpt::prof::IoProfile profile;
  hub.addSink(summary);
  hub.addSink(std::make_shared<bgckpt::prof::IoProfileSink>(profile));
  ReplayStats stats;
  if (!replayJsonl(path, hub, &stats)) return 2;
  int maxRank = summary->maxAppRank;
  for (const auto& r : profile.records()) maxRank = std::max(maxRank, r.rank);

  std::printf("trace_report: %s\n", path);
  std::printf("%" PRIu64 " events on %zu layers, horizon %.3f s\n",
              stats.lines, summary->layers.size(), stats.horizon);
  if (stats.parseErrors)
    std::printf("WARNING: %" PRIu64 " unparseable lines\n",
                stats.parseErrors);

  std::printf("\n%-12s %12s %16s %14s\n", "layer", "events", "bytes",
              "busy-seconds");
  for (const auto& [cat, lt] : summary->layers)
    std::printf("%-12s %12" PRIu64 " %16" PRIu64 " %14.3f\n", cat.c_str(),
                lt.events, lt.bytes, lt.busySeconds);

  std::uint64_t stillOpen = 0;
  for (const auto& [key, n] : summary->openSpans) stillOpen += n;
  const std::uint64_t unmatchedEnds = summary->unmatchedEnds;
  const bool balanced = stillOpen == 0 && unmatchedEnds == 0;
  std::printf("\nspan balance: %s (%" PRIu64 " unclosed, %" PRIu64
              " unmatched ends)\n",
              balanced ? "OK" : "BROKEN", stillOpen, unmatchedEnds);

  if (!profile.records().empty()) {
    bgckpt::prof::ReportOptions opt;
    opt.numRanks = maxRank + 1;
    opt.jobName = "trace";
    std::printf("\n%s", bgckpt::prof::renderReport(profile, opt).c_str());

    const double horizon = stats.horizon;
    const double binWidth = horizon / bins;
    std::vector<std::string> names;
    std::vector<std::vector<int>> series;
    using bgckpt::prof::Op;
    for (const Op op : {Op::kWrite, Op::kCreate, Op::kSend, Op::kRecv}) {
      auto counts = profile.activityTimeline(op, binWidth, horizon);
      if (std::any_of(counts.begin(), counts.end(),
                      [](int c) { return c > 0; })) {
        names.emplace_back(bgckpt::prof::opName(op));
        series.push_back(std::move(counts));
      }
    }
    if (!series.empty())
      std::printf("\nactivity timeline (ranks active per bin):\n%s",
                  bgckpt::analysis::activityStrip(names, series, binWidth)
                      .c_str());
  }

  return balanced && stats.parseErrors == 0 ? 0 : 1;
}
