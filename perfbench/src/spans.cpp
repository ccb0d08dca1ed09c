#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

// Span names are the benchmark's own ASCII labels; escape what JSON needs.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

}  // namespace

bool SpanLog::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": %s, \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d}",
                 i == 0 ? "" : ",", i,
                 quote(s.name).c_str(), s.start, s.end,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name)
    : log_(log), start_(SpanLog::Clock::now()) {
  if (!log_.enabled_) return;
  index_ = static_cast<int>(log_.spans_.size());
  const double t =
      std::chrono::duration<double>(start_ - log_.epoch_).count();
  log_.spans_.push_back(SpanLog::Span{std::move(name), t, t, log_.open_});
  log_.open_ = index_;
}

double ScopedSpan::stop() {
  if (seconds_ >= 0) return seconds_;
  const auto end = SpanLog::Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    SpanLog::Span& s = log_.spans_[static_cast<std::size_t>(index_)];
    s.end = std::chrono::duration<double>(end - log_.epoch_).count();
    log_.open_ = s.parent;
  }
  return seconds_;
}

}  // namespace perfbench
