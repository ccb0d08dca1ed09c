// Declarative command-line flags for the figure benches and the offline
// tools. A binary declares each flag once: its name, value kind, spellings,
// help text and the variable it fills (whose initial value is the default).
// Parser owns the rest: strict validation (`error: --flag: expected ...`,
// exit 2), unknown arguments, `--help`, and the list of flags given.
//
// Spellings, per Form: kBoth takes `--x V` and `--x=V`; kSpaced only
// `--x V`; kAttached `--x=V` or a bare `--x`, which stands for Flag::bare.
// A flag may take a word after it: `--telemetry[=DT] FILE`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace bgckpt::obs::cli {

enum class Kind : std::uint8_t {
  kNone,         // switch: sets a bool to true, or an int to Flag::value
  kCount,        // integer >= 1, plain decimal digits
  kIndex,        // integer >= 0, plain decimal digits
  kPositive,     // finite decimal number > 0 (no sign, no inf/nan)
  kNonNegative,  // finite decimal number >= 0
  kPath,         // any text: a file or directory
  kEnum,         // one of Flag::choices; fills an int with its index
};

enum class Form : std::uint8_t { kBoth, kSpaced, kAttached };

/// The word after the flag: none, a required path taken verbatim, or a
/// path taken unless the next word starts with "--".
enum class Operand : std::uint8_t { kNone, kPath, kOptionalPath };

struct Flag {
  Flag(std::string flagName, Kind valueKind,
       std::variant<bool*, int*, double*, std::string*> target,
       std::string helpText, Form spellings = Form::kBoth,
       std::string placeholder = "")
      : name(std::move(flagName)),
        kind(valueKind),
        into(target),
        help(std::move(helpText)),
        form(spellings),
        meta(std::move(placeholder)) {}

  Flag& bareMeans(std::string v) { bare = std::move(v); return *this; }
  Flag& oneOf(std::vector<std::string> c) {
    choices = std::move(c);
    return *this;
  }
  Flag& sets(int v) { value = v; return *this; }
  Flag& then(Operand o, std::string* target) {
    operand = o;
    operandInto = target;
    return *this;
  }

  std::string name;  // "--threads"
  Kind kind;
  std::variant<bool*, int*, double*, std::string*> into;
  std::string help;
  Form form;
  std::string meta;  // usage placeholder; empty: N, X, FILE or a|b by kind
  std::string bare;
  std::vector<std::string> choices;
  int value = 1;
  Operand operand = Operand::kNone;
  std::string* operandInto = nullptr;
};

/// "build/bench/fig5_write_bandwidth" -> "fig5_write_bandwidth".
std::string programName(const char* argv0);

class Parser {
 public:
  /// `synopsis` lines follow "usage: PROGRAM" (one usage line each).
  Parser(std::string program, std::vector<std::string> synopsis,
         std::vector<Flag> flags);

  enum class Status { kOk, kHelp, kBadValue, kUnknown };

  /// Match argv[1..argc) against the table, filling each flag's variable;
  /// a repeated flag keeps its last value. Words that do not start with
  /// '-' go to `positional`, or are unknown when it is null. Stops at the
  /// first error and describes it in `*error`.
  Status parse(int argc, char** argv, std::vector<std::string>* positional,
               std::string* error);

  /// parse(), then: --help prints the usage on stdout and exits 0; a bad
  /// value prints "error: ..." and exits 2; an unknown argument also
  /// prints the usage, and exits 2.
  void parseOrExit(int argc, char** argv,
                   std::vector<std::string>* positional = nullptr);

  /// Print "error: MESSAGE" and the usage on stderr; returns exit code 2.
  int usageError(const std::string& message) const;

  void usage(std::FILE* out) const;

  /// The flags given on the command line, in table order.
  std::vector<std::string> given() const;

 private:
  std::string program_;
  std::vector<std::string> synopsis_;
  std::vector<Flag> flags_;
  std::vector<bool> seen_;
};

}  // namespace bgckpt::obs::cli
