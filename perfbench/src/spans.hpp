// In-memory span log for the benchmark's traced run.
//
// Every public call the benchmark makes into a layer is timed by a
// ScopedSpan. The span always measures its duration (the benchmark's
// metrics come from it); the log records it (name, start, end, parent)
// only when enabled, and writes everything as JSON at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  struct Span {
    std::string name;
    double start = 0;  ///< host seconds since the log was created
    double end = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };
  const std::vector<Span>& spans() const { return spans_; }

  /// Write {"spans": [...]} to `path`; false if the file cannot be written.
  bool writeJson(const std::string& path) const;

 private:
  friend class ScopedSpan;
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span now (idempotent); returns its duration in seconds.
  double stop();

 private:
  SpanLog& log_;
  SpanLog::Clock::time_point start_;
  int index_ = -1;
  double seconds_ = -1;
};

}  // namespace perfbench
