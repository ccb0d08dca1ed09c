// bgckpt_perfbench: run one benchmark workload and print its metrics.
//
//   bgckpt_perfbench --workload shared-file|many-files|host-ckpt
//                    [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//
// Prints human-readable lines (exact simulated counts, the traced run's
// module table), then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Bad arguments exit 2 without a result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: bgckpt_perfbench --workload "
               "shared-file|many-files|host-ckpt [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR]\n",
               why);
  return 2;
}

bool parseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      if (!perfbench::parseWorkload(value, &opt.workload))
        return usage("unknown workload");
      haveWorkload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      if (!parseNumber(value, &number) || number <= 0)
        return usage("--seconds needs a positive number");
      opt.seconds = number;
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1")
        return usage("--trace takes 0 or 1");
      opt.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      opt.workDir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!haveWorkload) return usage("--workload is required");

  perfbench::Report report;
  try {
    report = perfbench::runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.notes)
    std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
