#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "obs/json.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::obs {

using json::appendf;

namespace {

void appendNum(std::string& out, double v) {
  // %.12g is lossless for the magnitudes telemetry handles and keeps the
  // export byte-stable across identical runs.
  appendf(out, "%.12g", v);
}

}  // namespace

const char* probeKindName(ProbeKind k) {
  switch (k) {
    case ProbeKind::kGauge: return "gauge";
    case ProbeKind::kCounter: return "counter";
    case ProbeKind::kRate: return "rate";
  }
  return "?";
}

// ---------------------------------------------------------------- Probe --

Probe::Probe(Telemetry& owner, std::string name, ProbeKind kind,
             int instances)
    : owner_(owner), name_(std::move(name)), kind_(kind) {
  SIM_CHECK(instances > 0, "telemetry probe needs at least one instance");
  series_.resize(static_cast<std::size_t>(instances));
  if (owner_.enabled_) {
    live_ = true;
    const sim::SimTime t = owner_.now();
    for (auto& s : series_) start(s, t);
  }
}

void Probe::start(Series& s, sim::SimTime t) {
  s.startT = s.lastT = t;
  s.firstBucket = s.bucket =
      static_cast<std::int64_t>(std::floor(t / owner_.dt_ + 1e-9));
  s.buckets.assign(1, Bucket{s.cur, s.cur, 0.0, s.cur});
}

void Probe::advance(Series& s, sim::SimTime t) {
  const double dt = owner_.dt_;
  for (;;) {
    const double bEnd = static_cast<double>(s.bucket + 1) * dt;
    Bucket& b = s.buckets.back();
    if (t < bEnd) {
      if (t > s.lastT) {
        b.integral += s.cur * (t - s.lastT);
        s.lastT = t;
      }
      return;
    }
    if (bEnd > s.lastT) b.integral += s.cur * (bEnd - s.lastT);
    b.last = s.cur;
    s.lastT = bEnd;
    ++s.bucket;
    s.buckets.push_back(Bucket{s.cur, s.cur, 0.0, s.cur});
  }
}

void Probe::record(int instance, double v, bool delta) {
  SIM_DCHECK(instance >= 0 &&
                 instance < static_cast<int>(series_.size()),
             "telemetry probe instance out of range");
  Series& s = series_[static_cast<std::size_t>(instance)];
  advance(s, owner_.now());
  s.cur = delta ? s.cur + v : v;
  Bucket& b = s.buckets.back();
  b.min = std::min(b.min, s.cur);
  b.max = std::max(b.max, s.cur);
  b.last = s.cur;
}

double Probe::bucketMean(const Series& s, std::size_t i, double dt) {
  const double bStart =
      static_cast<double>(s.firstBucket + static_cast<std::int64_t>(i)) * dt;
  const double covStart = std::max(bStart, static_cast<double>(s.startT));
  const double covEnd =
      std::min(bStart + dt, static_cast<double>(s.lastT));
  const double covered = covEnd - covStart;
  if (covered <= 0) return 0;
  return s.buckets[i].integral / covered;
}

// ------------------------------------------------------------ Telemetry --

Probe& Telemetry::probe(const std::string& name, ProbeKind kind,
                        int instances) {
  if (Probe* p = find(name)) {
    SIM_CHECK(p->kind() == kind && p->instances() == instances,
              "telemetry probe re-registered with a different shape");
    return *p;
  }
  probes_.push_back(
      std::unique_ptr<Probe>(new Probe(*this, name, kind, instances)));
  return *probes_.back();
}

Probe* Telemetry::find(const std::string& name) const {
  for (const auto& p : probes_)
    if (p->name() == name) return p.get();
  return nullptr;
}

void Telemetry::enable(const sim::Scheduler& sched, double dt) {
  if (enabled_) return;
  enabled_ = true;
  sched_ = &sched;
  dt_ = dt > 0 ? dt : kDefaultDt;
  const sim::SimTime t = sched.now();
  for (auto& p : probes_) {
    p->live_ = true;
    for (auto& s : p->series_) p->start(s, t);
  }
  queueDepth_ = &probe("sched.queue_depth", ProbeKind::kGauge, 1);
  nextSample_ = (std::floor(t / dt_) + 1.0) * dt_;
}

void Telemetry::tick(sim::SimTime nowT, std::size_t queueDepth) {
  if (!enabled_) return;
  queueDepth_->set(static_cast<double>(queueDepth));
  if (nowT < nextSample_) return;
  // Cadence sample: close buckets on every series so resources that went
  // quiet still report their (flat) level for this window.
  for (auto& p : probes_)
    for (auto& s : p->series_) p->advance(s, nowT);
  nextSample_ = (std::floor(nowT / dt_) + 1.0) * dt_;
}

void Telemetry::closeOut(sim::SimTime horizon) {
  if (!enabled_) return;
  horizon_ = std::max(horizon_, horizon);
  for (auto& p : probes_)
    for (auto& s : p->series_)
      if (horizon_ > s.lastT) p->advance(s, horizon_);
}

// ------------------------------------------------------------ Imbalance --

ImbalanceStats computeImbalance(
    const std::vector<double>& totals,
    const std::vector<std::vector<double>>& bucketLoad, double dt) {
  ImbalanceStats st;
  st.instances = static_cast<int>(totals.size());
  if (totals.empty()) return st;
  double sum = 0, sumSq = 0, best = -1;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const double v = totals[i];
    sum += v;
    sumSq += v * v;
    if (v > best) {
      best = v;
      st.busiest = static_cast<int>(i);
    }
  }
  st.totalLoad = sum;
  if (sum > 0 && sumSq > 0) {
    st.maxShare = best / sum;
    st.maxOverMean = best / (sum / static_cast<double>(totals.size()));
    st.jain = (sum * sum) / (static_cast<double>(totals.size()) * sumSq);
  }
  // Bucket-wise: every instance idle in a window where some peer was busy
  // contributes dt instance-seconds of provable imbalance.
  std::size_t buckets = 0;
  for (const auto& row : bucketLoad) buckets = std::max(buckets, row.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    int active = 0, idle = 0;
    for (const auto& row : bucketLoad) {
      const double v = b < row.size() ? row[b] : 0.0;
      if (v > 0)
        ++active;
      else
        ++idle;
    }
    if (active > 0) st.idleWhileBusySeconds += static_cast<double>(idle) * dt;
  }
  return st;
}

// -------------------------------------------------------- TelemetrySink --

void TelemetrySink::event(const TraceEvent& ev) {
  if (ev.layer != Layer::kApp || ev.tid < 0) return;
  if (std::string_view(ev.name) != "checkpoint") return;
  const auto rank = static_cast<std::size_t>(ev.tid);
  if (rank >= busy_.size()) {
    busy_.resize(rank + 1, 0.0);
    open_.resize(rank + 1, -1.0);
  }
  if (activeRanks_ == nullptr)
    activeRanks_ = &reg_->probe("app.active_ranks", ProbeKind::kGauge, 1);
  if (ev.phase == 'B') {
    sawEnvelopes_ = true;
    open_[rank] = ev.ts;
    activeRanks_->add(1.0);
  } else if (ev.phase == 'E') {
    if (open_[rank] >= 0) {
      busy_[rank] += ev.ts - open_[rank];
      open_[rank] = -1.0;
    }
    activeRanks_->add(-1.0);
  }
}

void TelemetrySink::finalize(sim::SimTime horizon) {
  if (finalized_) return;
  finalized_ = true;
  horizon_ = horizon;
  // A rank still inside its envelope at the horizon was busy to the end;
  // the active_ranks level already integrates it the same way.
  for (std::size_t r = 0; r < open_.size(); ++r) {
    if (open_[r] >= 0) {
      busy_[r] += horizon - open_[r];
      open_[r] = -1.0;
    }
  }
  reg_->closeOut(horizon);
}

namespace {

/// Export row for one bucket: gauge -> [min, mean, max, last];
/// counter/rate -> [delta, rate]. `prevLast` threads the cumulative level.
std::vector<double> exportRow(const Probe& p, const Probe::Series& s,
                              std::size_t i, double dt, double* prevLast) {
  const Probe::Bucket& b = s.buckets[i];
  if (p.kind() == ProbeKind::kGauge)
    return {b.min, Probe::bucketMean(s, i, dt), b.max, b.last};
  const double delta = b.last - *prevLast;
  *prevLast = b.last;
  return {delta, dt > 0 ? delta / dt : 0.0};
}

bool allZero(const std::vector<double>& row) {
  for (double v : row)
    if (v != 0.0) return false;
  return true;
}

struct SeriesExport {
  std::int64_t first = 0;  // global index of rows[0]
  double total = 0;        // gauge: integral; counter/rate: final level
  std::vector<std::vector<double>> rows;
};

SeriesExport exportSeries(const Probe& p, const Probe::Series& s, double dt) {
  SeriesExport ex;
  double prevLast = 0;
  std::vector<std::vector<double>> rows;
  rows.reserve(s.buckets.size());
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    // Drop the zero-width bucket opened exactly at the horizon.
    const double bStart =
        static_cast<double>(s.firstBucket + static_cast<std::int64_t>(i)) *
        dt;
    if (i + 1 == s.buckets.size() && s.lastT <= bStart) break;
    rows.push_back(exportRow(p, s, i, dt, &prevLast));
  }
  if (p.kind() == ProbeKind::kGauge) {
    for (const auto& b : s.buckets) ex.total += b.integral;
  } else {
    ex.total = s.cur;
  }
  // Trim leading/trailing all-zero rows; `first` keeps the alignment.
  std::size_t lead = 0;
  while (lead < rows.size() && allZero(rows[lead])) ++lead;
  std::size_t tail = rows.size();
  while (tail > lead && allZero(rows[tail - 1])) --tail;
  ex.first = s.firstBucket + static_cast<std::int64_t>(lead);
  ex.rows.assign(rows.begin() + static_cast<std::ptrdiff_t>(lead),
                 rows.begin() + static_cast<std::ptrdiff_t>(tail));
  return ex;
}

}  // namespace

std::vector<std::vector<double>> TelemetrySink::loadMatrix(
    const Probe& p) const {
  const double dt = reg_->bucketDt();
  const auto buckets = static_cast<std::size_t>(
      std::ceil(horizon_ / dt - 1e-9));
  std::vector<std::vector<double>> rows;
  rows.reserve(static_cast<std::size_t>(p.instances()));
  for (int i = 0; i < p.instances(); ++i) {
    const Probe::Series& s = p.seriesAt(i);
    std::vector<double> row(buckets, 0.0);
    double prevLast = 0;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      const auto gi = static_cast<std::size_t>(
          s.firstBucket + static_cast<std::int64_t>(b));
      double v;
      if (p.kind() == ProbeKind::kGauge) {
        v = Probe::bucketMean(s, b, dt);
      } else {
        v = s.buckets[b].last - prevLast;
        prevLast = s.buckets[b].last;
      }
      if (gi < buckets) row[gi] = v;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string TelemetrySink::toJson() const {
  const double dt = reg_->bucketDt();
  std::string out;
  out.reserve(1 << 16);
  out += "{\n  \"schema\": \"";
  out += Telemetry::kSchemaVersion;
  out += "\",\n  \"bucket_dt\": ";
  appendNum(out, dt);
  out += ",\n  \"horizon\": ";
  appendNum(out, horizon_);
  out += ",\n  \"buckets\": ";
  appendf(out, "%lld",
          static_cast<long long>(std::ceil(horizon_ / dt - 1e-9)));
  out += ",\n  \"series\": [";
  bool firstSeries = true;
  for (const auto& p : reg_->probes()) {
    if (!firstSeries) out += ",";
    firstSeries = false;
    out += "\n    {\"name\": \"" + p->name() + "\", \"kind\": \"";
    out += probeKindName(p->kind());
    appendf(out, "\", \"instances\": %d", p->instances());
    std::vector<SeriesExport> exports;
    exports.reserve(static_cast<std::size_t>(p->instances()));
    for (int i = 0; i < p->instances(); ++i)
      exports.push_back(exportSeries(*p, p->seriesAt(i), dt));
    if (p->instances() > 1) {
      std::vector<double> totals;
      totals.reserve(exports.size());
      for (const auto& ex : exports) totals.push_back(ex.total);
      const ImbalanceStats st = computeImbalance(totals, loadMatrix(*p), dt);
      out += ",\n     \"imbalance\": {\"total_load\": ";
      appendNum(out, st.totalLoad);
      out += ", \"max_share\": ";
      appendNum(out, st.maxShare);
      out += ", \"max_over_mean\": ";
      appendNum(out, st.maxOverMean);
      out += ", \"jain\": ";
      appendNum(out, st.jain);
      out += ", \"idle_while_busy_seconds\": ";
      appendNum(out, st.idleWhileBusySeconds);
      appendf(out, ", \"busiest\": %d}", st.busiest);
    }
    out += ",\n     \"per_instance\": [";
    for (std::size_t i = 0; i < exports.size(); ++i) {
      const SeriesExport& ex = exports[i];
      if (i) out += ",";
      appendf(out, "\n      {\"i\": %zu, \"total\": ", i);
      appendNum(out, ex.total);
      appendf(out, ", \"first\": %lld, \"buckets\": [",
              static_cast<long long>(ex.first));
      for (std::size_t r = 0; r < ex.rows.size(); ++r) {
        if (r) out += ",";
        out += "[";
        for (std::size_t c = 0; c < ex.rows[r].size(); ++c) {
          if (c) out += ",";
          appendNum(out, ex.rows[r][c]);
        }
        out += "]";
      }
      out += "]}";
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n  \"rank_busy\": {\"ranks\": ";
  appendf(out, "%zu", busy_.size());
  out += ", \"busy_seconds\": [";
  for (std::size_t r = 0; r < busy_.size(); ++r) {
    if (r) out += ",";
    appendNum(out, busy_[r]);
  }
  out += "]}\n}\n";
  return out;
}

void TelemetrySink::crossCheckAttribution(
    const AttributionEngine::Report& report) const {
  if (!sawEnvelopes_ || !finalized_) return;
  // The envelope integration is event-exact; attribution may additionally
  // count the microsecond-scale collective spans bracketing the envelope.
  // One bucket width is the documented agreement contract.
  const double tol = reg_->bucketDt() + 1e-9;
  for (const auto& r : report.ranks) {
    if (r.rank < 0 || r.rank >= static_cast<int>(busy_.size())) continue;
    const double sampled = busy_[static_cast<std::size_t>(r.rank)];
    if (sampled <= 0) continue;
    SIM_CHECK(std::fabs(sampled - r.blocked()) <= tol,
              "telemetry per-rank busy time diverges from the attribution "
              "partition by more than one bucket width");
  }
  if (activeRanks_ != nullptr && reg_->enabled()) {
    double sum = 0;
    for (double b : busy_) sum += b;
    const Probe::Series& s = activeRanks_->seriesAt(0);
    double integral = 0;
    for (const auto& b : s.buckets) integral += b.integral;
    SIM_CHECK(std::fabs(integral - sum) <=
                  1e-6 * std::max(1.0, sum) + reg_->bucketDt(),
              "active_ranks integral diverges from per-rank busy totals");
  }
}

}  // namespace bgckpt::obs
