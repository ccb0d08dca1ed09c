#include "obs/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace bgckpt::obs::cli {

namespace {

/// Kind::kEnum's spellings: "on|warn|off".
std::string choices(const Flag& f) {
  std::string s;
  for (const std::string& c : f.choices) {
    if (!s.empty()) s += '|';
    s += c;
  }
  return s;
}

/// Validate `text` against the flag's kind and store it; false if invalid.
/// Numbers are plain decimals: a leading digit (or '.' for reals), no sign.
bool store(const Flag& f, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const bool numeric =
      !text.empty() && (std::isdigit(static_cast<unsigned char>(text[0])) ||
                        text[0] == '.');
  switch (f.kind) {
    case Kind::kCount:
    case Kind::kIndex: {
      const long n = std::strtol(text.c_str(), &end, 10);
      if (!numeric || text[0] == '.' || *end != '\0' || errno == ERANGE ||
          n < (f.kind == Kind::kCount ? 1 : 0) ||
          n > std::numeric_limits<int>::max())
        return false;
      *std::get<int*>(f.into) = static_cast<int>(n);
      return true;
    }
    case Kind::kPositive:
    case Kind::kNonNegative: {
      const double v = std::strtod(text.c_str(), &end);
      if (!numeric || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
          (v == 0.0 && f.kind == Kind::kPositive))
        return false;
      *std::get<double*>(f.into) = v;
      return true;
    }
    case Kind::kPath:
      *std::get<std::string*>(f.into) = text;
      return true;
    case Kind::kEnum:
      for (std::size_t i = 0; i < f.choices.size(); ++i) {
        if (f.choices[i] != text) continue;
        *std::get<int*>(f.into) = static_cast<int>(i);
        return true;
      }
      return false;
    case Kind::kNone:
      if (bool* const* b = std::get_if<bool*>(&f.into))
        **b = true;
      else
        *std::get<int*>(f.into) = f.value;
      return true;
  }
  return false;
}

/// "--threads N", "--simcheck[=on|warn|off]", "--optrace[=RATE] [FILE]".
std::string synopsis(const Flag& f) {
  constexpr const char* kMeta[] = {"", "N", "N", "X", "X", "FILE", ""};
  std::string s = f.name;
  if (f.kind != Kind::kNone) {
    // Appended piecewise: `"[=" + meta` trips GCC 12's -Wrestrict false
    // positive at -O3 under -Werror.
    s += f.form == Form::kAttached ? "[=" : " ";
    if (!f.meta.empty())
      s += f.meta;
    else if (f.kind == Kind::kEnum)
      s += choices(f);
    else
      s += kMeta[static_cast<int>(f.kind)];
    if (f.form == Form::kAttached) s += ']';
  }
  if (f.operand == Operand::kPath) s += " FILE";
  if (f.operand == Operand::kOptionalPath) s += " [FILE]";
  return s;
}

/// Print `text` wrapped to 78 columns, each line indented six spaces.
void printHelp(std::FILE* out, const std::string& text) {
  std::size_t col = 0;
  for (std::size_t pos = 0, end = 0; pos < text.size(); pos = end + 1) {
    end = std::min(text.find(' ', pos), text.size());
    if (col > 0 && col + 1 + end - pos > 78) {
      std::fputc('\n', out);
      col = 0;
    }
    std::fputs(col == 0 ? "      " : " ", out);
    col += col == 0 ? 6 : 1;
    col += std::fwrite(text.data() + pos, 1, end - pos, out);
  }
  std::fputc('\n', out);
}

}  // namespace

std::string programName(const char* argv0) {
  const char* slash = std::strrchr(argv0, '/');
  return slash != nullptr ? slash + 1 : argv0;
}

Parser::Parser(std::string program, std::vector<std::string> synopsis,
               std::vector<Flag> flags)
    : program_(std::move(program)),
      synopsis_(std::move(synopsis)),
      flags_(std::move(flags)),
      seen_(flags_.size(), false) {}

Parser::Status Parser::parse(int argc, char** argv,
                             std::vector<std::string>* positional,
                             std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) return Status::kHelp;
    if (arg[0] != '-' && positional != nullptr) {
      positional->emplace_back(arg);
      continue;
    }
    const char* eq = std::strchr(arg, '=');
    const std::string name = eq != nullptr ? std::string(arg, eq) : arg;
    std::size_t k = 0;
    while (k < flags_.size() && flags_[k].name != name) ++k;
    if (k == flags_.size() ||
        (eq != nullptr &&
         (flags_[k].kind == Kind::kNone || flags_[k].form == Form::kSpaced))) {
      *error = std::string("unknown argument '") + arg + "'";
      return Status::kUnknown;
    }
    const Flag& f = flags_[k];
    // The value: attached, a switch's, the bare default, or the next word.
    const char* value = eq != nullptr ? eq + 1 : nullptr;
    if (value == nullptr && f.kind == Kind::kNone) value = "";
    if (value == nullptr && f.form == Form::kAttached && !f.bare.empty())
      value = f.bare.c_str();
    if (value == nullptr && f.form != Form::kAttached && i + 1 < argc)
      value = argv[++i];
    const bool missing = value == nullptr && f.form != Form::kAttached;
    if (missing || (value != nullptr && !store(f, value))) {
      const std::string want =
          f.kind == Kind::kCount         ? "an integer >= 1"
          : f.kind == Kind::kIndex       ? "an integer >= 0"
          : f.kind == Kind::kPositive    ? "a number > 0"
          : f.kind == Kind::kNonNegative ? "a number >= 0"
          : f.kind == Kind::kEnum        ? "one of " + choices(f)
                                         : "a path after the flag";
      *error = f.name + ": expected " + want + ", got '" +
               (missing ? "" : value) + "'";
      return Status::kBadValue;
    }
    if (f.operand == Operand::kPath && i + 1 >= argc) {
      *error = f.name + ": expected a path after the flag, got ''";
      return Status::kBadValue;
    }
    if (f.operand == Operand::kPath ||
        (f.operand == Operand::kOptionalPath && i + 1 < argc &&
         std::strncmp(argv[i + 1], "--", 2) != 0))
      *f.operandInto = argv[++i];
    seen_[k] = true;
  }
  return Status::kOk;
}

void Parser::parseOrExit(int argc, char** argv,
                         std::vector<std::string>* positional) {
  std::string error;
  switch (parse(argc, argv, positional, &error)) {
    case Status::kOk: return;
    case Status::kHelp:
      usage(stdout);
      std::exit(0);
    case Status::kBadValue:
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(2);
    case Status::kUnknown:
      std::exit(usageError(error));
  }
}

int Parser::usageError(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  usage(stderr);
  return 2;
}

void Parser::usage(std::FILE* out) const {
  for (std::size_t i = 0; i < synopsis_.size(); ++i)
    std::fprintf(out, "%s %s %s\n", i == 0 ? "usage:" : "      ",
                 program_.c_str(), synopsis_[i].c_str());
  std::fprintf(out, "flags:\n");
  for (const Flag& f : flags_) {
    std::fprintf(out, "  %s\n", synopsis(f).c_str());
    printHelp(out, f.help);
  }
  std::fprintf(out, "  --help\n      print this help and exit\n");
}

std::vector<std::string> Parser::given() const {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < flags_.size(); ++k)
    if (seen_[k]) names.push_back(flags_[k].name);
  return names;
}

}  // namespace bgckpt::obs::cli
