#include "layer_clock.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

namespace sim = bgckpt::sim;

const char* moduleName(Module m) {
  switch (m) {
    case Module::kSimcore: return "simcore";
    case Module::kNetsim: return "netsim";
    case Module::kStorsim: return "storsim";
    case Module::kFssim: return "fssim";
    case Module::kMpisim: return "mpisim";
    case Module::kMpiio: return "mpiio";
    case Module::kIolib: return "iolib";
    case Module::kOther: return "other";
  }
  return "other";
}

Module moduleForLabel(std::string_view label) {
  // A plain delay is labelled with the file that awaited it.
  const std::size_t src = label.rfind("src/");
  if (src != std::string_view::npos && (src == 0 || label[src - 1] == '/')) {
    const std::string_view rest = label.substr(src + 4);
    const std::string_view dir = rest.substr(0, rest.find('/'));
    for (int m = 0; m < kNumModules - 1; ++m) {
      const auto mod = static_cast<Module>(m);
      if (dir == moduleName(mod)) return mod;
    }
    return Module::kOther;
  }
  // Wakes by a Resource or a synchronisation primitive carry its name.
  static constexpr std::pair<std::string_view, Module> kNamed[] = {
      // First resume of a rank program; the iolib strategies spawn them.
      {"spawn", Module::kIolib},
      {"barrier", Module::kMpisim},      // mpisim communicator barrier
      {"gate", Module::kMpisim},         // mpisim request completion
      {"mpi-deliver", Module::kMpisim},  // message matched to a receive
      {"torus-injection", Module::kNetsim},
      {"torus-ejection", Module::kNetsim},
      {"ion-uplink", Module::kNetsim},
      {"fs-server", Module::kStorsim},
      {"ddn-array-port", Module::kStorsim},
      {"fs-token-server", Module::kFssim},
      {"fs-metanode", Module::kFssim},
      {"fs-dir-queue", Module::kFssim},
  };
  for (const auto& [name, mod] : kNamed)
    if (label == name) return mod;
  return Module::kOther;
}

double ModuleTimes::total() const {
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum;
}

ModuleTimes& ModuleTimes::operator+=(const ModuleTimes& other) {
  for (int m = 0; m < kNumModules; ++m) {
    seconds[m] += other.seconds[m];
    events[m] += other.events[m];
  }
  outsideLoopSeconds += other.outsideLoopSeconds;
  return *this;
}

LayerClock::LayerClock(sim::Scheduler& sched, bgckpt::obs::Observability& obs)
    : sched_(sched), probe_(obs) {
  sched_.setHooks(this);
}

LayerClock::~LayerClock() { sched_.setHooks(nullptr); }

double LayerClock::lap() {
  const Clock::time_point now = Clock::now();
  const double dt =
      running_ ? std::chrono::duration<double>(now - mark_).count() : 0.0;
  mark_ = now;
  running_ = true;
  return dt;
}

std::uint32_t LayerClock::labelIndex(const char* label) {
  for (std::size_t i = 0; i < labelKeys_.size(); ++i)
    if (labelKeys_[i] == label) return static_cast<std::uint32_t>(i);
  labelKeys_.push_back(label);
  labels_.push_back(LabelStat{label, moduleForLabel(label), 0, 0.0});
  return static_cast<std::uint32_t>(labels_.size() - 1);
}

std::uint32_t LayerClock::popNext() {
  const bool haveNow = nowHead_ < nowFifo_.size();
  if (haveNow &&
      (later_.empty() || Later{}(later_.top(), nowFifo_[nowHead_]))) {
    const std::uint32_t label = nowFifo_[nowHead_++].label;
    if (nowHead_ == nowFifo_.size()) {
      nowFifo_.clear();
      nowHead_ = 0;
    }
    return label;
  }
  // Both empty only if the event was queued before the clock was installed.
  if (later_.empty()) return labelIndex("(queued before the clock)");
  const std::uint32_t label = later_.top().label;
  later_.pop();
  return label;
}

void LayerClock::onDispatch(sim::SimTime now, std::size_t queueDepth) {
  probe_.onDispatch(now, queueDepth);
  const double dt = lap();
  LabelStat& stat = labels_[popNext()];
  ++stat.events;
  stat.seconds += dt;
  const auto m = static_cast<std::size_t>(stat.module);
  times_.seconds[m] += dt;
  ++times_.events[m];
}

void LayerClock::onRootSpawned(std::uint64_t rootId, sim::SimTime now) {
  probe_.onRootSpawned(rootId, now);
  if (sched_.dispatchingSeq() == kNoParent) {
    const double dt = lap();
    times_.seconds[static_cast<std::size_t>(Module::kIolib)] += dt;
    times_.outsideLoopSeconds += dt;
  }
}

void LayerClock::onRootDone(std::uint64_t rootId, sim::SimTime now) {
  probe_.onRootDone(rootId, now);
}

void LayerClock::onEventScheduled(std::uint64_t seq, std::uint64_t parentSeq,
                                  sim::SimTime when, sim::WakeKind kind,
                                  const char* label) {
  const Pending p{when, seq, labelIndex(label)};
  if (when == sched_.now())
    nowFifo_.push_back(p);
  else
    later_.push(p);
  if (parentSeq != kNoParent) return;
  const double dt = lap();
  if (kind == sim::WakeKind::kSpawn) {
    // Since onRootSpawned: Scheduler::spawn building the root runner.
    times_.seconds[static_cast<std::size_t>(Module::kSimcore)] += dt;
  } else {
    times_.seconds[static_cast<std::size_t>(Module::kIolib)] += dt;
    times_.outsideLoopSeconds += dt;
  }
}

std::vector<LayerClock::LabelStat> LayerClock::labels() const {
  std::map<std::string, LabelStat> merged;
  for (const LabelStat& s : labels_) {
    LabelStat& m = merged[s.label];
    m.label = s.label;
    m.module = s.module;
    m.events += s.events;
    m.seconds += s.seconds;
  }
  std::vector<LabelStat> out;
  out.reserve(merged.size());
  for (auto& [label, stat] : merged) out.push_back(std::move(stat));
  return out;
}

}  // namespace perfbench
