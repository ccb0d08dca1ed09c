// The declarative flag parser shared by the benches and the offline tools:
// every value kind accepts its well-formed values in each spelling the
// flag allows and rejects the rest, with the "--flag: expected ..." text
// the binaries print before exiting 2.
#include "obs/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace bgckpt::obs::cli {
namespace {

/// Parse `args` (argv[0] is supplied) against `flags`.
Parser::Status parseArgs(std::vector<Flag> flags,
                         std::vector<std::string> args,
                         std::string* error = nullptr,
                         std::vector<std::string>* positional = nullptr) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  Parser p("prog", {"[flags]"}, std::move(flags));
  std::string err;
  const auto status = p.parse(static_cast<int>(argv.size()), argv.data(),
                              positional, &err);
  if (error != nullptr) *error = err;
  return status;
}

TEST(Cli, CountAcceptsBothFormsAndRejectsMalformedValues) {
  int n = 7;
  const Flag flag("--n", Kind::kCount, &n, "count");
  EXPECT_EQ(parseArgs({flag}, {"--n", "12"}), Parser::Status::kOk);
  EXPECT_EQ(n, 12);
  EXPECT_EQ(parseArgs({flag}, {"--n=3"}), Parser::Status::kOk);
  EXPECT_EQ(n, 3);
  for (const char* bad : {"0", "-3", "4x", "abc", "", "+5", "99999999999"}) {
    std::string error;
    EXPECT_EQ(parseArgs({flag}, {std::string("--n=") + bad}, &error),
              Parser::Status::kBadValue)
        << bad;
    EXPECT_EQ(error,
              std::string("--n: expected an integer >= 1, got '") + bad + "'");
    EXPECT_EQ(parseArgs({flag}, {"--n", bad}), Parser::Status::kBadValue)
        << bad;
  }
  std::string error;
  EXPECT_EQ(parseArgs({flag}, {"--n"}, &error), Parser::Status::kBadValue);
  EXPECT_EQ(error, "--n: expected an integer >= 1, got ''");
  EXPECT_EQ(n, 3);
}

TEST(Cli, IndexAcceptsZero) {
  int id = -1;
  const Flag flag("--req", Kind::kIndex, &id, "id", Form::kSpaced);
  EXPECT_EQ(parseArgs({flag}, {"--req", "0"}), Parser::Status::kOk);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(parseArgs({flag}, {"--req", "-1"}), Parser::Status::kBadValue);
  EXPECT_EQ(parseArgs({flag}, {"--req", "abc"}), Parser::Status::kBadValue);
  EXPECT_EQ(parseArgs({flag}, {"--req"}), Parser::Status::kBadValue);
  // A spaced-only flag does not take the attached spelling.
  EXPECT_EQ(parseArgs({flag}, {"--req=3"}), Parser::Status::kUnknown);
}

TEST(Cli, RealKindsCheckTheirLowerBound) {
  double positive = 0.0;
  double nonNegative = 0.5;
  const Flag pos("--dt", Kind::kPositive, &positive, "dt");
  const Flag nonneg("--tol", Kind::kNonNegative, &nonNegative, "tol");
  EXPECT_EQ(parseArgs({pos}, {"--dt=0.25"}), Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(positive, 0.25);
  EXPECT_EQ(parseArgs({pos}, {"--dt", ".5"}), Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(positive, 0.5);
  EXPECT_EQ(parseArgs({nonneg}, {"--tol", "0"}), Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(nonNegative, 0.0);
  EXPECT_EQ(parseArgs({nonneg}, {"--tol=1e-2"}), Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(nonNegative, 0.01);
  std::string error;
  EXPECT_EQ(parseArgs({pos}, {"--dt=0"}, &error), Parser::Status::kBadValue);
  EXPECT_EQ(error, "--dt: expected a number > 0, got '0'");
  for (const char* bad : {"abc", "-1", "inf", "nan", "1s", "x100", ""}) {
    EXPECT_EQ(parseArgs({pos}, {std::string("--dt=") + bad}),
              Parser::Status::kBadValue)
        << bad;
    EXPECT_EQ(parseArgs({nonneg}, {"--tol", bad}, &error),
              Parser::Status::kBadValue)
        << bad;
    EXPECT_EQ(error, std::string("--tol: expected a number >= 0, got '") +
                         bad + "'");
  }
  EXPECT_EQ(parseArgs({nonneg}, {"--tol"}), Parser::Status::kBadValue);
}

TEST(Cli, PathTakesTheNextArgumentVerbatim) {
  std::string path;
  const Flag flag("--trace", Kind::kPath, &path, "trace");
  EXPECT_EQ(parseArgs({flag}, {"--trace", "--looks-like-a-flag"}),
            Parser::Status::kOk);
  EXPECT_EQ(path, "--looks-like-a-flag");
  EXPECT_EQ(parseArgs({flag}, {"--trace=a=b.json"}), Parser::Status::kOk);
  EXPECT_EQ(path, "a=b.json");
  std::string error;
  EXPECT_EQ(parseArgs({flag}, {"--trace"}, &error),
            Parser::Status::kBadValue);
  EXPECT_EQ(error, "--trace: expected a path after the flag, got ''");
}

TEST(Cli, EnumWithBareDefault) {
  int mode = -1;
  const Flag flag = Flag("--simcheck", Kind::kEnum, &mode, "checker",
                         Form::kAttached)
                        .bareMeans("on")
                        .oneOf({"on", "warn", "off"});
  EXPECT_EQ(parseArgs({flag}, {"--simcheck"}), Parser::Status::kOk);
  EXPECT_EQ(mode, 0);
  EXPECT_EQ(parseArgs({flag}, {"--simcheck=off"}), Parser::Status::kOk);
  EXPECT_EQ(mode, 2);
  std::string error;
  EXPECT_EQ(parseArgs({flag}, {"--simcheck=ON"}, &error),
            Parser::Status::kBadValue);
  EXPECT_EQ(error, "--simcheck: expected one of on|warn|off, got 'ON'");
  EXPECT_EQ(parseArgs({flag}, {"--simcheck="}), Parser::Status::kBadValue);
  // The attached-only flag leaves the next word alone.
  EXPECT_EQ(parseArgs({flag}, {"--simcheck", "warn"}, &error),
            Parser::Status::kUnknown);
  EXPECT_EQ(error, "unknown argument 'warn'");
}

TEST(Cli, SwitchesStoreTheirValue) {
  bool on = false;
  int mode = 0;
  const std::vector<Flag> flags = {
      Flag("--no-wall", Kind::kNone, &on, "switch"),
      Flag("--attr", Kind::kNone, &mode, "mode").sets(1),
      Flag("--critpath", Kind::kNone, &mode, "mode").sets(2)};
  EXPECT_EQ(parseArgs(flags, {"--no-wall", "--critpath", "--attr"}),
            Parser::Status::kOk);
  EXPECT_TRUE(on);
  EXPECT_EQ(mode, 1);  // the last switch wins
  EXPECT_EQ(parseArgs(flags, {"--no-wall=1"}), Parser::Status::kUnknown);
}

TEST(Cli, OperandsFollowTheFlagValue) {
  double dt = 0.0;
  std::string out;
  std::string opt;
  double rate = 0.0;
  const std::vector<Flag> flags = {
      Flag("--telemetry", Kind::kPositive, &dt, "t", Form::kAttached, "DT")
          .then(Operand::kPath, &out),
      Flag("--optrace", Kind::kPositive, &rate, "o", Form::kAttached, "RATE")
          .then(Operand::kOptionalPath, &opt)};
  EXPECT_EQ(parseArgs(flags, {"--telemetry=0.5", "--t.json"}),
            Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(dt, 0.5);
  EXPECT_EQ(out, "--t.json");
  EXPECT_EQ(parseArgs(flags, {"--telemetry", "u.json"}), Parser::Status::kOk);
  EXPECT_EQ(out, "u.json");
  EXPECT_EQ(parseArgs(flags, {"--telemetry=0.5"}), Parser::Status::kBadValue);
  EXPECT_EQ(parseArgs(flags, {"--telemetry"}), Parser::Status::kBadValue);
  // The optional operand is skipped when the next word is a flag.
  EXPECT_EQ(parseArgs(flags, {"--optrace", "--telemetry", "v.json"}),
            Parser::Status::kOk);
  EXPECT_EQ(opt, "");
  EXPECT_EQ(out, "v.json");
  EXPECT_EQ(parseArgs(flags, {"--optrace=4", "o.json"}), Parser::Status::kOk);
  EXPECT_DOUBLE_EQ(rate, 4.0);
  EXPECT_EQ(opt, "o.json");
}

TEST(Cli, UnknownArgumentsAndPositionals) {
  int n = 1;
  const Flag flag("--n", Kind::kCount, &n, "count");
  std::string error;
  for (const char* arg : {"--m", "--m=2", "-x", "stray", "--n-x=2"}) {
    EXPECT_EQ(parseArgs({flag}, {arg}, &error), Parser::Status::kUnknown)
        << arg;
    EXPECT_EQ(error, std::string("unknown argument '") + arg + "'");
  }
  std::vector<std::string> positional;
  EXPECT_EQ(parseArgs({flag}, {"a.json", "--n", "2", "b.json"}, &error,
                      &positional),
            Parser::Status::kOk);
  EXPECT_EQ(positional, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(parseArgs({flag}, {"--n=2", "--help", "--n=0"}),
            Parser::Status::kHelp);
  EXPECT_EQ(parseArgs({flag}, {"--n=0", "--help"}), Parser::Status::kBadValue);
}

TEST(Cli, GivenListsFlagsInTableOrder) {
  int n = 1;
  std::string path;
  std::vector<Flag> flags = {Flag("--n", Kind::kCount, &n, "count"),
                             Flag("--out", Kind::kPath, &path, "out")};
  std::vector<std::string> args = {"prog", "--out=x", "--n", "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  Parser p("prog", {"[flags]"}, std::move(flags));
  std::string error;
  ASSERT_EQ(p.parse(4, argv.data(), nullptr, &error), Parser::Status::kOk);
  EXPECT_EQ(p.given(), (std::vector<std::string>{"--n", "--out"}));
}

}  // namespace
}  // namespace bgckpt::obs::cli
