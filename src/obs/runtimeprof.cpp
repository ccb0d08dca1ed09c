#include "obs/runtimeprof.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/json.hpp"

namespace bgckpt::obs {

using json::appendf;

namespace {

// The one place in src/ that reads a host clock (srclint allowlists this
// file): the profiler measures the engine, it never feeds the model.
std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void appendQuoted(std::string& out, const std::string& s) {
  out += '"';
  json::escapeInto(out, s);
  out += '"';
}

}  // namespace

struct RuntimeProfiler::RegionState {
  ParallelRegionProfile* profile = nullptr;
  std::uint64_t id = 0;
  std::uint64_t beginNs = 0;
  // Indexed by job; each job is claimed by exactly one worker, so slots
  // are written lock-free by distinct threads.
  std::vector<std::uint64_t> jobBeginNs;
};

RuntimeProfiler::RuntimeProfiler(const Config& config) : config_(config) {}

RuntimeProfiler::~RuntimeProfiler() { uninstall(); }

void RuntimeProfiler::install() {
  sim::setRuntimeObserver(this);
  installed_ = true;
}

void RuntimeProfiler::uninstall() {
  if (!installed_) return;
  installed_ = false;
  if (sim::runtimeObserver() == this) sim::setRuntimeObserver(nullptr);
}

void RuntimeProfiler::setPointLabels(std::vector<std::string> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  pendingLabels_ = std::move(labels);
}

void RuntimeProfiler::recordPoint(const std::string& label, double wallSeconds,
                                  std::uint64_t events, unsigned threads) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(PointRecord{label, wallSeconds, events, threads});
}

void RuntimeProfiler::parallelForBegin(std::uint64_t id, std::size_t jobs,
                                       unsigned threads) noexcept {
  try {
    std::lock_guard<std::mutex> lock(mu_);
    if (regions_.size() >= config_.maxRegions) {
      ++droppedRegions_;
      pendingLabels_.clear();
      return;
    }
    auto profile = std::make_unique<ParallelRegionProfile>();
    profile->id = id;
    profile->jobs = jobs;
    profile->threads = threads;
    profile->perJob.resize(jobs);
    if (pendingLabels_.size() == jobs) {
      for (std::size_t i = 0; i < jobs; ++i)
        profile->perJob[i].label = std::move(pendingLabels_[i]);
    }
    pendingLabels_.clear();
    auto state = std::make_unique<RegionState>();
    state->profile = profile.get();
    state->id = id;
    state->beginNs = nowNs();
    state->jobBeginNs.resize(jobs);
    regions_.push_back(std::move(profile));
    liveRegions_.push_back(std::move(state));
  } catch (...) {
  }
}

void RuntimeProfiler::jobBegin(std::uint64_t id, std::size_t job,
                               unsigned worker) noexcept {
  (void)worker;
  RegionState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : liveRegions_)
      if (s->id == id) { state = s.get(); break; }
  }
  if (!state || job >= state->jobBeginNs.size()) return;
  state->jobBeginNs[job] = nowNs();
}

void RuntimeProfiler::jobEnd(std::uint64_t id, std::size_t job,
                             unsigned worker) noexcept {
  const std::uint64_t t = nowNs();
  RegionState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : liveRegions_)
      if (s->id == id) { state = s.get(); break; }
  }
  if (!state || job >= state->jobBeginNs.size()) return;
  auto& slot = state->profile->perJob[job];
  slot.ns = t - state->jobBeginNs[job];
  slot.worker = worker;
}

void RuntimeProfiler::parallelForEnd(std::uint64_t id) noexcept {
  const std::uint64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = liveRegions_.begin(); it != liveRegions_.end(); ++it) {
    if ((*it)->id == id) {
      (*it)->profile->wallNs = t - (*it)->beginNs;
      liveRegions_.erase(it);
      return;
    }
  }
}

std::string RuntimeProfiler::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  appendf(out, "{\n  \"schema\": \"%s\",\n  \"clock\": \"steady\",\n",
          kRuntimeProfSchemaVersion);
  appendf(out, "  \"dropped_regions\": %llu,\n",
          static_cast<unsigned long long>(droppedRegions_));

  out += "  \"parallel_regions\": [";
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const ParallelRegionProfile& reg = *regions_[r];
    std::uint64_t sum = 0, maxJob = 0;
    for (const auto& j : reg.perJob) {
      sum += j.ns;
      maxJob = std::max(maxJob, j.ns);
    }
    appendf(out, "%s\n    {\"id\": %llu, \"jobs\": %zu, \"threads\": %u, "
            "\"wall_ns\": %llu, \"sum_job_ns\": %llu, "
            "\"max_job_ns\": %llu,\n     \"jobs_detail\": [",
            r == 0 ? "" : ",", static_cast<unsigned long long>(reg.id),
            reg.jobs, reg.threads, static_cast<unsigned long long>(reg.wallNs),
            static_cast<unsigned long long>(sum),
            static_cast<unsigned long long>(maxJob));
    for (std::size_t i = 0; i < reg.perJob.size(); ++i) {
      const auto& j = reg.perJob[i];
      appendf(out, "%s\n      {\"job\": %zu, \"worker\": %u, \"ns\": %llu, "
              "\"label\": ",
              i == 0 ? "" : ",", i, j.worker,
              static_cast<unsigned long long>(j.ns));
      appendQuoted(out, j.label);
      out += "}";
    }
    out += "]}";
  }
  out += "],\n";

  out += "  \"points\": [";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const PointRecord& p = points_[i];
    appendf(out, "%s\n    {\"label\": ", i == 0 ? "" : ",");
    appendQuoted(out, p.label);
    appendf(out, ", \"wall_s\": %.17g, \"events\": %llu, \"threads\": %u}",
            p.wallSeconds, static_cast<unsigned long long>(p.events),
            p.threads);
  }
  out += "]\n}\n";
  return out;
}

}  // namespace bgckpt::obs
