// srclint driver: collect sources, lex + scope-model them, run the rules,
// subtract the baseline, and report (text always; SARIF / counts / baseline
// on request).
//
// Exit codes: 0 = clean, 1 = findings (including stale baseline entries),
// 2 = usage or I/O error. CI treats 1 as a failed gate.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "obs/cli.hpp"
#include "report.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

bool lintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> collect(const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const std::string& r : roots) {
    std::error_code ec;
    if (fs::is_directory(r, ec)) {
      for (fs::recursive_directory_iterator it(r, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        // Test-vector trees carry deliberate findings; recursion skips
        // them, but a fixture file passed explicitly is always linted.
        if (it->is_directory(ec) && it->path().filename() == "fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file(ec) && lintableExtension(it->path()))
          files.push_back(it->path().generic_string());
      }
    } else {
      files.push_back(fs::path(r).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

int listRules() {
  for (const auto& r : srclint::ruleRegistry())
    std::cout << r.name << "  [" << r.family << "]\n    " << r.summary << "\n";
  return 0;
}

int explainRule(const std::string& name) {
  const auto* r = srclint::findRule(name);
  if (r == nullptr) {
    std::cerr << "srclint: unknown rule `" << name
              << "` (see --list-rules)\n";
    return 2;
  }
  std::cout << r->name << "  [" << r->family << "]\n" << r->summary << "\n\n"
            << r->explain << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using bgckpt::obs::cli::Flag;
  using bgckpt::obs::cli::Kind;
  using bgckpt::obs::cli::Form;
  std::vector<std::string> roots;
  std::string rootDir;
  std::string baselinePath;
  std::string writeBaselinePath;
  std::string sarifPath;
  std::string explain;
  bool counts = false;
  bool list = false;
  bgckpt::obs::cli::Parser cli(
      "srclint", {"[flags] <file-or-dir>..."},
      {Flag("--root", Kind::kPath, &rootDir,
            "report paths relative to DIR", Form::kSpaced, "DIR"),
       Flag("--baseline", Kind::kPath, &baselinePath,
            "suppress findings listed in FILE; stale entries are themselves "
            "findings",
            Form::kSpaced),
       Flag("--write-baseline", Kind::kPath, &writeBaselinePath,
            "write current findings as a baseline", Form::kSpaced),
       Flag("--sarif", Kind::kPath, &sarifPath,
            "also write a SARIF 2.1.0 report", Form::kSpaced),
       Flag("--counts", Kind::kNone, &counts,
            "print a per-rule markdown count table to stdout (for CI job "
            "summaries)"),
       Flag("--list-rules", Kind::kNone, &list,
            "print the rule catalog and exit"),
       Flag("--explain", Kind::kPath, &explain,
            "print one rule's full rationale and exit", Form::kSpaced,
            "RULE")});
  cli.parseOrExit(argc, argv, &roots);
  if (list) return listRules();
  if (!explain.empty()) return explainRule(explain);
  if (roots.empty()) return cli.usageError("no file or directory to lint");

  const std::vector<std::string> paths = collect(roots);
  std::vector<srclint::AnalyzedFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths)
    files.push_back(srclint::analyze(srclint::lex(p)));

  const std::vector<srclint::Finding> raw = srclint::runRules(files);
  std::vector<srclint::Reported> findings =
      srclint::prepare(files, raw, rootDir);

  if (!baselinePath.empty()) {
    srclint::Baseline baseline;
    std::string error;
    if (!srclint::loadBaseline(baselinePath, baseline, error)) {
      std::cerr << "srclint: " << error << "\n";
      return 2;
    }
    srclint::applyBaseline(findings, baseline);
  }

  if (!writeBaselinePath.empty() &&
      !srclint::writeBaselineFile(writeBaselinePath, findings)) {
    std::cerr << "srclint: cannot write baseline " << writeBaselinePath
              << "\n";
    return 2;
  }
  if (!sarifPath.empty() && !srclint::writeSarif(sarifPath, findings)) {
    std::cerr << "srclint: cannot write SARIF report " << sarifPath << "\n";
    return 2;
  }
  if (counts) srclint::printCounts(std::cout, findings);

  srclint::printText(std::cerr, findings);
  std::size_t live = 0;
  for (const auto& r : findings)
    if (!r.baselined) ++live;
  if (live != 0) {
    std::cerr << "srclint: " << live << " finding" << (live == 1 ? "" : "s")
              << " across " << paths.size() << " files\n";
    return 1;
  }
  std::cerr << "srclint: clean (" << paths.size() << " files)\n";
  return 0;
}
