#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace srclint {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"raw-new", "hygiene",
     "raw new/delete inside src/simcore (allocations belong to the arena)",
     "Coroutine frames and event nodes must go through the FrameArena / the\n"
     "event pool; a stray heap allocation on the per-event path is a silent\n"
     "perf regression. `operator new` plumbing (the arena's slab allocator\n"
     "and the promise-type hooks) is exempt: it *is* the designated\n"
     "allocator."},
    {"priority-queue", "hygiene",
     "std::priority_queue outside src/simcore/scheduler.cpp",
     "The tiered ladder queue is the production dispatch structure; the\n"
     "legacy binary heap exists only as the A/B reference inside\n"
     "scheduler.cpp. Any other priority_queue is either a duplicate event\n"
     "queue or an accidental O(log n) hot path."},
    {"assert", "hygiene",
     "release-invisible assert() (or <cassert>) in src/",
     "assert() vanishes under NDEBUG, so a Release bench would publish\n"
     "corrupted figures instead of aborting. Simulation-state invariants\n"
     "must use SIM_CHECK/SIM_DCHECK (simcore/simcheck.hpp), which stay\n"
     "armed in Release and dump the flight recorder on failure."},
    {"wall-clock", "determinism",
     "host clocks / libc randomness in src/ or bench/ (allowlist: "
     "src/obs/runtimeprof.*, bench/common.*)",
     "Simulated time comes from the Scheduler and randomness from the\n"
     "seeded SplitMix/xoshiro RNG streams; rand(), random_device, or any\n"
     "host clock makes runs irreproducible and breaks the byte-identity\n"
     "gates every figure bench is held to. Two files are allowlisted by\n"
     "path (a scoped rule option, not srclint:allow markers): the runtime\n"
     "execution profiler (src/obs/runtimeprof.*), which measures real\n"
     "worker wall time by definition and never feeds it back into\n"
     "simulated time, and bench/common.*, which owns the one sanctioned\n"
     "harness stopwatch (bench::WallTimer) that every harness times with."},
    {"ternary-co-await", "coroutine-lifetime",
     "co_await in a temporary-lifetime operand position (?: branch, "
     "range-for range)",
     "GCC's coroutine lowering destroys the awaited temporary before the\n"
     "conditional's result is copied out — ASan sees a use-after-free (the\n"
     "exact bug PR 3's sanitizer matrix caught in the fssim test). The\n"
     "scope-aware version flags co_await anywhere inside a ?: branch at\n"
     "the operator's own expression level, and in the range expression of\n"
     "a range-for (the range temporary must outlive the whole loop, but\n"
     "the suspension point lets it die first). Spell it as if/else, or\n"
     "bind the awaited value to a local first."},
    {"obs-emit", "hygiene",
     "direct sink emit() outside src/obs",
     "Trace events flow through the Observability helpers (begin / end /\n"
     "complete / message / counterSample) and sinks register via\n"
     "Observability::addSink; hand-rolled emit calls bypass the layer-mask\n"
     "fast path and the sink registry the flight recorder and attribution\n"
     "rely on."},
    {"telemetry-probe", "hygiene",
     "probe() not resolved from the Telemetry registry on the same line",
     "Sampled series come from the shared registry\n"
     "(obs->telemetry().probe(\"name\", ...)); ad-hoc sampling state in sim\n"
     "layers would not flip live with --telemetry, never export, and dodge\n"
     "the imbalance analytics and the attribution cross-check."},
    {"optrace-mint", "hygiene",
     "mintOpTrace() below the strategy layer",
     "A causal-trace context is minted once at the strategy layer\n"
     "(src/iolib, src/obs) and then propagated *by value*; a layer that\n"
     "re-mints mid-path severs the request's lineage and double-counts it\n"
     "in every percentile table. Backends that legitimately originate\n"
     "requests (e.g. hostio) carry an explicit allow with justification."},
    {"static-mutable", "thread-safety",
     "unsynchronized static/namespace-scope mutable state in src/simcore "
     "or src/netsim",
     "sim::parallelFor runs whole simulations at once on worker threads\n"
     "(one figure point per job), so these layers execute concurrently in\n"
     "one process; hidden static state is a data race between points and a\n"
     "determinism leak (one point's run would see another's). The\n"
     "scope-aware version catches what a declaration regex could not:\n"
     "namespace-scope variables *without* the static keyword, and\n"
     "function-local statics. Declarations marked const/constexpr/\n"
     "thread_local, or of atomic/mutex/once_flag type, are exempt; anything\n"
     "else needs an explicit allow naming the synchronisation that\n"
     "protects it."},
    {"include-hygiene", "hygiene",
     "missing #pragma once, \"../\" includes, <bits/...> internals",
     "Headers must start with #pragma once; includes use module-qualified\n"
     "paths from the src root (never \"../\"); libstdc++ <bits/...>\n"
     "internals are not a stable interface."},
    {"coro-lambda-capture", "coroutine-lifetime",
     "capturing lambda that is itself a coroutine",
     "A lambda's captures live in the closure object, NOT in the coroutine\n"
     "frame (C++ Core Guidelines CP.51). The returned Task resumes after\n"
     "the closure temporary is gone, so every capture — by reference or by\n"
     "value — is a dangling access after the first suspension unless the\n"
     "closure object provably outlives the run. Pass state as explicit\n"
     "parameters instead (the coroutine frame copies parameters). The one\n"
     "sanctioned exception is a lambda passed directly to\n"
     "Runtime::spawnAll, which documents that it pins the callable for the\n"
     "lifetime of the run."},
    {"coro-spawn-dangling", "coroutine-lifetime",
     "spawned coroutine binds a reference parameter to a temporary",
     "Scheduler::spawn detaches the task: it outlives the spawning\n"
     "full-expression, so a reference (or pointer) parameter bound to a\n"
     "temporary argument dangles at the first suspension — the same UAF\n"
     "class the PR 3 sanitizer matrix caught dynamically. Pass temporaries\n"
     "by value, or name the object in a scope that outlives the run. The\n"
     "rule resolves the callee's parameter list within the same file; an\n"
     "unresolvable callee is not flagged."},
    {"det-unordered-iteration", "determinism",
     "unordered container iteration feeding an ordered sink or float "
     "accumulation",
     "Iteration order of std::unordered_map/set is an implementation\n"
     "detail: it varies across libstdc++ versions, hash seeds, and even\n"
     "insertion histories. A loop over one is fine when the body is\n"
     "order-independent (integer sums, key collection followed by a sort)\n"
     "but silently breaks the byte-identity guarantees when the body\n"
     "reaches an export/stdout/telemetry sink or accumulates into floats\n"
     "(FP addition does not commute). Collect and sort keys first, or use\n"
     "an ordered container."},
    {"shard-global-read", "thread-safety",
     "simcore/netsim function reads mutable namespace-scope state",
     "The static-mutable rule stops *declaring* hidden state inside the\n"
     "layers parallelFor runs concurrently; this rule closes the other\n"
     "half: code in src/simcore or src/netsim that *reads* a mutable\n"
     "namespace-scope variable — declared in the same file or, cross-file,\n"
     "any src/ global following the gName convention — is a data race and\n"
     "a determinism leak once several simulations run on worker threads.\n"
     "Keep the state per simulation (in the Scheduler or the model\n"
     "objects), or behind an explicitly synchronized registry."},
    {"manifest-stamp", "provenance",
     "\".manifest.json\" spelled outside the shared stamping helper "
     "(allowlist: src/obs/runstore.*)",
     "Every obs artifact's `<file>.manifest.json` sidecar is written by\n"
     "obs::writeArtifactManifest (src/obs/runstore.cpp), which stamps the\n"
     "schema version, git revision, and config hash that make artifacts\n"
     "addressable from the campaign ledger. A layer that assembles the\n"
     "sidecar path itself will drift from the manifest schema the readers\n"
     "gate on (trace_report rejects unknown manifest versions with exit\n"
     "2) and will miss the provenance fields, so the literal suffix in\n"
     "src/ or bench/ is a finding outside the helper's own files."},
    {"allow-needs-justification", "meta",
     "srclint:allow without a justification",
     "Every suppression documents why it is safe:\n"
     "`// srclint:allow(<rule>): <why>`. A bare allow is itself a\n"
     "finding."},
    {"allow-unknown-rule", "meta",
     "srclint:allow naming a rule that does not exist",
     "A typo'd rule name used to silently suppress nothing while looking\n"
     "load-bearing. The allow marker must name a rule from --list-rules;\n"
     "anything else is a finding so the typo gets fixed instead of\n"
     "shipped."},
    {"baseline-stale", "meta",
     "baseline entry no longer matches any finding",
     "The committed baseline (tools/srclint/baseline.json) exists so\n"
     "pre-existing accepted findings don't block CI while new regressions\n"
     "fail it. When the code a baseline entry suppressed is fixed or\n"
     "removed, the entry must be deleted (regenerate with\n"
     "--write-baseline) — stale entries would otherwise re-mask the next\n"
     "regression at the same site."},
};

// ---------------------------------------------------------------------------
// Small token helpers
// ---------------------------------------------------------------------------

bool isPunct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

bool isIdent(const Token& t, const char* s) {
  return t.kind == Tok::kIdent && t.text == s;
}

const std::set<std::string> kWallClockIdents = {
    "rand",          "srand",         "random_device", "steady_clock",
    "system_clock",  "high_resolution_clock",          "gettimeofday",
    "clock_gettime", "localtime",     "gmtime",        "mktime",
    "timespec_get",
};

/// The wall-clock rule's scoped carve-out: paths whose *purpose* is
/// real-time measurement. The runtime profiler times worker threads with
/// the host clock by definition, and bench/common owns the one sanctioned
/// harness stopwatch (WallTimer). Matched as path substrings so the
/// fixture trees under tests/tools/fixtures exercise the same logic.
constexpr const char* kWallClockAllowedPaths[] = {
    "src/obs/runtimeprof.",
    "bench/common.",
};

/// The manifest-stamp rule's carve-out: the shared stamping helper itself
/// (obs::writeArtifactManifest and its header docs) is the one sanctioned
/// place in src/ or bench/ that spells the sidecar suffix.
constexpr const char* kManifestStampAllowedPaths[] = {
    "src/obs/runstore.",
};

/// Per-file rule context: effective allow map and a findings sink that
/// consults it.
struct FileCtx {
  const AnalyzedFile& f;
  std::vector<Finding>& out;
  /// line -> rules allowed on that line (justified + known only).
  std::map<std::uint32_t, std::set<std::string>> allowed;

  bool isAllowed(std::uint32_t line, const char* rule) const {
    const auto it = allowed.find(line);
    return it != allowed.end() && it->second.count(rule) != 0;
  }

  void report(std::uint32_t line, const char* rule, std::string message) const {
    if (isAllowed(line, rule)) return;
    out.push_back(Finding{f.lex.path, line, rule, std::move(message)});
  }
};

/// Resolve comment allows to code lines: an allow on a line with tokens
/// covers that line; an allow on a comment-only line covers the next line
/// that has tokens. Unjustified or unknown-rule allows are findings and do
/// not suppress.
void resolveAllows(FileCtx& ctx) {
  const LexedFile& lex = ctx.f.lex;
  std::set<std::uint32_t> codeLines;
  for (const Token& t : lex.tokens) codeLines.insert(t.line);
  for (const PreprocLine& p : lex.preproc) codeLines.insert(p.line);
  for (const auto& [line, allows] : lex.allows) {
    for (const Allow& a : allows) {
      if (findRule(a.rule) == nullptr) {
        ctx.out.push_back(Finding{
            lex.path, line, "allow-unknown-rule",
            "srclint:allow(" + a.rule +
                ") names no srclint rule; see --list-rules (a typo'd name "
                "would silently suppress nothing)"});
        continue;
      }
      if (!a.justified) {
        ctx.out.push_back(Finding{
            lex.path, line, "allow-needs-justification",
            "srclint:allow(" + a.rule +
                ") must carry a justification: `// srclint:allow(" + a.rule +
                "): why this is safe`"});
        continue;
      }
      std::uint32_t target = line;
      if (codeLines.count(line) == 0) {
        const auto next = codeLines.upper_bound(line);
        if (next == codeLines.end()) continue;
        target = *next;
      }
      ctx.allowed[target].insert(a.rule);
    }
  }
}

// ---------------------------------------------------------------------------
// Preprocessor-line rules (include hygiene, assert includes)
// ---------------------------------------------------------------------------

void preprocRules(FileCtx& ctx) {
  const AnalyzedFile& f = ctx.f;
  bool sawPragmaOnce = false;
  for (const PreprocLine& p : f.lex.preproc) {
    if (p.text.find("#pragma") != std::string::npos &&
        p.text.find("once") != std::string::npos)
      sawPragmaOnce = true;
    if (p.text.find("include") == std::string::npos) continue;
    if (p.text.find("\"../") != std::string::npos)
      ctx.report(p.line, "include-hygiene",
                 "no \"../\" relative includes; use a module-qualified path");
    if (p.text.find("<bits/") != std::string::npos)
      ctx.report(p.line, "include-hygiene",
                 "never include libstdc++ <bits/...> internals");
    if (f.inSrc && (p.text.find("<cassert>") != std::string::npos ||
                    p.text.find("<assert.h>") != std::string::npos))
      ctx.report(p.line, "assert",
                 "src/ does not use assert(); include simcore/simcheck.hpp "
                 "and use SIM_CHECK/SIM_DCHECK");
  }
  if (f.isHeader && !sawPragmaOnce)
    ctx.report(1, "include-hygiene", "header is missing #pragma once");
}

// ---------------------------------------------------------------------------
// Token rules (the ported line-regex checks, now literal-proof)
// ---------------------------------------------------------------------------

void tokenRules(FileCtx& ctx) {
  const AnalyzedFile& f = ctx.f;
  const auto& toks = f.lex.tokens;
  // Same-line identifier index for the telemetry-probe check.
  std::map<std::uint32_t, std::set<std::string>> lineIdents;
  for (const Token& t : toks)
    if (t.kind == Tok::kIdent) lineIdents[t.line].insert(t.text);

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kString && (f.inSrc || f.inBench) &&
        !f.manifestStampAllowed &&
        t.text.find("manifest.json") != std::string::npos)
      ctx.report(t.line, "manifest-stamp",
                 "\".manifest.json\" sidecars are written only by "
                 "obs::writeArtifactManifest (src/obs/runstore.hpp), which "
                 "stamps the schema version, git revision, and config hash");
    if (t.kind != Tok::kIdent) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const bool memberCall =
        prev != nullptr && next != nullptr &&
        (isPunct(*prev, ".") || isPunct(*prev, "->")) && isPunct(*next, "(");

    if (f.inSimcore && (t.text == "new" || t.text == "delete")) {
      const bool operatorPlumbing = prev != nullptr && isIdent(*prev, "operator");
      const bool deletedFn =
          t.text == "delete" && prev != nullptr && isPunct(*prev, "=");
      if (!operatorPlumbing && !deletedFn)
        ctx.report(t.line, "raw-new",
                   "raw `" + t.text +
                       "` in simcore; allocations on the event path must go "
                       "through FrameArena / the event pool");
    }
    if (t.text == "priority_queue" && !f.isSchedulerCpp)
      ctx.report(t.line, "priority-queue",
                 "std::priority_queue is reserved for the legacy reference "
                 "queue inside scheduler.cpp; use the Scheduler API");
    if (f.inSrc && t.text == "assert" && next != nullptr && isPunct(*next, "("))
      ctx.report(t.line, "assert",
                 "assert() vanishes under NDEBUG; simulation-state "
                 "invariants must use SIM_CHECK (simcore/simcheck.hpp)");
    if ((f.inSrc || f.inBench) && !f.wallClockAllowed &&
        kWallClockIdents.count(t.text) != 0)
      ctx.report(t.line, "wall-clock",
                 "`" + t.text +
                     "` breaks reproducibility; use Scheduler time and the "
                     "seeded sim::Rng (harness timing goes through "
                     "bench::WallTimer)");
    if (t.text == "emit" && !f.inObs && memberCall)
      ctx.report(t.line, "obs-emit",
                 "direct emit() bypasses the Observability hub; use "
                 "begin/end/complete/message/counterSample and register "
                 "sinks with Observability::addSink");
    if (f.inSrc && !f.inObs && t.text == "probe" && memberCall) {
      const auto& idents = lineIdents[t.line];
      if (idents.count("telemetry") == 0)
        ctx.report(t.line, "telemetry-probe",
                   "probe() must be resolved from the Telemetry registry on "
                   "this line (obs->telemetry().probe(...)); ad-hoc sampling "
                   "state bypasses --telemetry and the imbalance analytics");
    }
    if (f.inSrc && !f.inObs && !f.inIolib && t.text == "mintOpTrace")
      ctx.report(t.line, "optrace-mint",
                 "mintOpTrace() is reserved for strategy-level code "
                 "(src/iolib, src/obs); layers below must propagate the "
                 "OpTraceContext they were given, never re-mint");
  }
}

// ---------------------------------------------------------------------------
// coroutine-lifetime: ternary-co-await (generalized temporary positions)
// ---------------------------------------------------------------------------

void ternaryCoAwaitRule(FileCtx& ctx) {
  const auto& toks = ctx.f.lex.tokens;
  const auto& match = ctx.f.scopes.match;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!isIdent(toks[i], "co_await")) continue;
    // Walk backward to the statement start, skipping balanced groups.
    // A '?' reached at the expression's own level means this co_await is a
    // ?: branch operand; an unmatched '(' belonging to a `for (… : …)`
    // head means it is the range expression of a range-for.
    bool flagged = false;
    std::size_t p = i;
    while (p > 0 && !flagged) {
      --p;
      const Token& t = toks[p];
      if (t.kind != Tok::kPunct) continue;
      const std::string& s = t.text;
      if (s == ")" || s == "]" || s == "}") {
        if (match[p] == kNone || match[p] > p) break;  // unbalanced
        p = match[p];
        continue;
      }
      if (s == "?") {
        ctx.report(toks[i].line, "ternary-co-await",
                   "co_await as a ?: branch operand: GCC's coroutine "
                   "lowering destroys the awaited temporary before the "
                   "conditional's result is copied out; use an if/else "
                   "statement");
        flagged = true;
        break;
      }
      if (s == ";" || s == "{" || s == "}") break;
      if (s == "(" || s == "[") {
        // Unmatched opener: we are inside this group. A range-for head is
        // hazardous when the co_await sits after its ':' (the range
        // expression). A call argument list ends the ?: scan — argument
        // temporaries get full-expression lifetime.
        if (s == "(" && p > 0 && isIdent(toks[p - 1], "for")) {
          bool colonBeforeAwait = false;
          std::size_t depth = 0;
          for (std::size_t q = p + 1; q < i; ++q) {
            const Token& u = toks[q];
            if (u.kind != Tok::kPunct) continue;
            if (u.text == "(" || u.text == "[") {
              if (match[q] != kNone && match[q] < i) {
                q = match[q];
                continue;
              }
              ++depth;
            } else if (u.text == ":" && depth == 0) {
              colonBeforeAwait = true;
            }
          }
          if (colonBeforeAwait) {
            ctx.report(toks[i].line, "ternary-co-await",
                       "co_await in a range-for range expression: the "
                       "awaited temporary dies before the loop body resumes; "
                       "bind it to a local first");
            flagged = true;
          }
          break;
        }
        // Grouping paren (operator before it): stay in the ?: scan.
        const bool grouping =
            s == "(" &&
            (p == 0 || (toks[p - 1].kind == Tok::kPunct &&
                        toks[p - 1].text != ")" && toks[p - 1].text != "]"));
        if (!grouping) break;
        continue;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// coroutine-lifetime: coro-lambda-capture
// ---------------------------------------------------------------------------

void coroLambdaCaptureRule(FileCtx& ctx) {
  const auto& toks = ctx.f.lex.tokens;
  for (const Scope& sc : ctx.f.scopes.scopes) {
    if (sc.kind != ScopeKind::kLambda || !sc.isCoroutine) continue;
    if (sc.captureClose <= sc.captureOpen + 1) continue;  // [] — stateless
    // The hazard is the *temporary* closure: an immediately-invoked
    // coroutine lambda whose closure object dies at the end of the full
    // expression while the lazy Task resumes later. A named closure
    // (`auto body = [&]...; sched.spawn(body());` with run() in the same
    // scope) keeps the captures alive and is the tree's safe idiom.
    if (sc.close + 1 >= toks.size() || !isPunct(toks[sc.close + 1], "("))
      continue;  // closure is stored or passed, not invoked in place
    // `co_await [..](){...}()` is safe: the enclosing coroutine's frame
    // keeps the full-expression temporaries alive across the suspension.
    if (sc.captureOpen > 0 && isIdent(toks[sc.captureOpen - 1], "co_await"))
      continue;
    std::string caps;
    for (std::size_t k = sc.captureOpen + 1; k < sc.captureClose; ++k) {
      if (!caps.empty()) caps += " ";
      caps += toks[k].text;
    }
    ctx.report(toks[sc.captureOpen].line, "coro-lambda-capture",
               "immediately-invoked coroutine lambda captures [" + caps +
                   "]: captures live in the closure object, not the "
                   "coroutine frame, and the temporary closure dies before "
                   "the lazy Task first resumes (CP.51); name the closure "
                   "in a scope that outlives the run, or pass state as "
                   "parameters");
  }
}

// ---------------------------------------------------------------------------
// coroutine-lifetime: coro-spawn-dangling
// ---------------------------------------------------------------------------

/// Split a bracketed token range (open..close exclusive) at top-level commas.
std::vector<std::pair<std::size_t, std::size_t>> splitArgs(
    const std::vector<Token>& toks, const std::vector<std::size_t>& match,
    std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  std::size_t start = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kPunct &&
        (t.text == "(" || t.text == "[" || t.text == "{")) {
      if (match[i] != kNone && match[i] < close) i = match[i];
      continue;
    }
    if (isPunct(t, ",")) {
      parts.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < close) parts.emplace_back(start, close);
  return parts;
}

bool rangeHasPunct(const std::vector<Token>& toks, std::size_t b,
                   std::size_t e, const char* s) {
  for (std::size_t i = b; i < e; ++i)
    if (isPunct(toks[i], s)) return true;
  return false;
}

/// Does this argument expression produce a temporary? Identifier chains
/// (a, a.b, a->b, A::b) are lvalues; std::move/forward of one keeps the
/// underlying object's lifetime. Calls, constructor expressions, braced
/// inits, and literals are temporaries.
bool argIsTemporary(const std::vector<Token>& toks,
                    const std::vector<std::size_t>& match, std::size_t b,
                    std::size_t e) {
  if (b >= e) return false;
  // std::move(x) / std::forward<T>(x): recurse into the inner expression.
  for (std::size_t i = b; i + 1 < e; ++i) {
    if ((isIdent(toks[i], "move") || isIdent(toks[i], "forward")) &&
        isPunct(toks[i + 1], "(") && match[i + 1] != kNone &&
        match[i + 1] == e - 1)
      return argIsTemporary(toks, match, i + 2, e - 1);
  }
  bool sawCallOrBrace = false;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kNumber || t.kind == Tok::kString) return true;
    if (t.kind == Tok::kPunct && (t.text == "(" || t.text == "{"))
      sawCallOrBrace = true;
  }
  return sawCallOrBrace;
}

void coroSpawnDanglingRule(FileCtx& ctx) {
  const auto& toks = ctx.f.lex.tokens;
  const auto& match = ctx.f.scopes.match;
  const auto& scopes = ctx.f.scopes.scopes;

  // Index same-file callables by name for parameter resolution. Test files
  // reuse lambda names (`auto body = ...` per TEST), so a call site must
  // resolve to the *nearest preceding* definition, mirroring shadowing.
  std::map<std::string, std::vector<const Scope*>> byName;
  for (const Scope& sc : scopes) {
    if (sc.kind != ScopeKind::kFunction && sc.kind != ScopeKind::kLambda)
      continue;
    if (sc.name.empty() || sc.paramsOpen == 0 ||
        sc.paramsClose <= sc.paramsOpen)
      continue;
    // A parameter range containing ';' means the classifier misread —
    // never resolve through it.
    bool sane = true;
    for (std::size_t q = sc.paramsOpen + 1; q < sc.paramsClose; ++q)
      if (isPunct(toks[q], ";")) sane = false;
    if (sane) byName[sc.name].push_back(&sc);
  }
  if (byName.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "spawn") || !isPunct(toks[i + 1], "(")) continue;
    const std::size_t spawnClose = match[i + 1];
    if (spawnClose == kNone) continue;
    // The spawned expression must be `callee(args)` with callee an
    // (optionally qualified) identifier.
    std::size_t j = i + 2;
    std::string callee;
    while (j < spawnClose && (toks[j].kind == Tok::kIdent ||
                              isPunct(toks[j], "::") || isPunct(toks[j], "."))) {
      if (toks[j].kind == Tok::kIdent) callee = toks[j].text;
      ++j;
    }
    if (callee.empty() || j >= spawnClose || !isPunct(toks[j], "(")) continue;
    const std::size_t argsClose = match[j];
    if (argsClose == kNone || argsClose + 1 != spawnClose) continue;
    const auto it = byName.find(callee);
    if (it == byName.end()) continue;
    const Scope* resolved = nullptr;
    for (const Scope* cand : it->second)
      if (cand->open < i) resolved = cand;
    if (resolved == nullptr) continue;
    const Scope& fn = *resolved;
    const auto params =
        splitArgs(toks, match, fn.paramsOpen, fn.paramsClose);
    const auto args = splitArgs(toks, match, j, argsClose);
    const std::size_t n = std::min(params.size(), args.size());
    for (std::size_t k = 0; k < n; ++k) {
      const bool refParam =
          rangeHasPunct(toks, params[k].first, params[k].second, "&") ||
          rangeHasPunct(toks, params[k].first, params[k].second, "&&") ||
          rangeHasPunct(toks, params[k].first, params[k].second, "*");
      if (!refParam) continue;
      if (!argIsTemporary(toks, match, args[k].first, args[k].second))
        continue;
      // Parameter name: last identifier in the parameter declaration.
      std::string pname;
      for (std::size_t q = params[k].first; q < params[k].second; ++q)
        if (toks[q].kind == Tok::kIdent) pname = toks[q].text;
      ctx.report(toks[i].line, "coro-spawn-dangling",
                 "spawned coroutine `" + callee +
                     "` binds reference parameter `" + pname +
                     "` to a temporary; the detached task outlives the "
                     "full-expression and the reference dangles at the "
                     "first suspension");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: det-unordered-iteration
// ---------------------------------------------------------------------------

const std::set<std::string> kOrderedSinkIdents = {
    "printf", "fprintf", "sprintf",  "snprintf",      "puts",
    "fputs",  "fwrite",  "appendf",  "appendNum",     "emit",
    "counterSample",
};
const std::set<std::string> kStreamIdents = {"cout", "cerr", "clog", "os",
                                             "out"};

/// Collect names declared (as variables, members, or parameters) with an
/// unordered container type in this file.
std::set<std::string> unorderedNames(const AnalyzedFile& f) {
  std::set<std::string> names;
  const auto& toks = f.lex.tokens;
  const auto& match = f.scopes.match;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (t.text != "unordered_map" && t.text != "unordered_set" &&
        t.text != "unordered_multimap" && t.text != "unordered_multiset")
      continue;
    // Skip the template argument list (angle brackets are not
    // bracket-matched; count depth, jumping over parenthesized groups).
    std::size_t j = i + 1;
    if (j >= toks.size() || !isPunct(toks[j], "<")) continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      const Token& u = toks[j];
      if (u.kind != Tok::kPunct) continue;
      if (u.text == "(" && match[j] != kNone) {
        j = match[j];
        continue;
      }
      if (u.text == "<") ++depth;
      if (u.text == ">") --depth;
      if (u.text == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    // After the closing '>': optional ref/ptr, then the declared name.
    ++j;
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
            isPunct(toks[j], "&&") || isIdent(toks[j], "const")))
      ++j;
    if (j >= toks.size() || toks[j].kind != Tok::kIdent) continue;
    const std::size_t nameAt = j;
    ++j;
    if (j < toks.size() &&
        (isPunct(toks[j], ";") || isPunct(toks[j], "=") ||
         isPunct(toks[j], "{") || isPunct(toks[j], ",") ||
         isPunct(toks[j], ")")))
      names.insert(toks[nameAt].text);
  }
  return names;
}

/// Float-typed value names in this file (for `x += ...` accumulation).
std::set<std::string> floatNames(const AnalyzedFile& f) {
  std::set<std::string> names;
  const auto& toks = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "double") && !isIdent(toks[i], "float")) continue;
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*")))
      ++j;
    if (j < toks.size() && toks[j].kind == Tok::kIdent)
      names.insert(toks[j].text);
  }
  return names;
}

/// Does the body range contain an order-sensitive sink?
/// Returns a short description, or empty when order-independent.
std::string bodySink(const AnalyzedFile& f, std::size_t b, std::size_t e,
                     const std::set<std::string>& floats) {
  const auto& toks = f.lex.tokens;
  bool sawStream = false;
  bool sawShift = false;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kIdent) {
      if (kOrderedSinkIdents.count(t.text) != 0)
        return "calls `" + t.text + "`";
      if (kStreamIdents.count(t.text) != 0) sawStream = true;
      if (t.text == "add" && i > 0 &&
          (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")) &&
          i + 1 < e && isPunct(toks[i + 1], "("))
        return "feeds a sample accumulator via .add()";
      continue;
    }
    if (t.kind == Tok::kPunct) {
      if (t.text == "<<") sawShift = true;
      if (t.text == "+=" && i > 0 && toks[i - 1].kind == Tok::kIdent &&
          floats.count(toks[i - 1].text) != 0)
        return "accumulates into float `" + toks[i - 1].text + "`";
    }
  }
  if (sawStream && sawShift) return "writes to a stream";
  return "";
}

void unorderedIterationRule(FileCtx& ctx,
                            const std::set<std::string>& crossFileMembers) {
  const AnalyzedFile& f = ctx.f;
  if (!f.inSrc) return;  // sim + export layers; tests may iterate freely
  // Same-file declarations, plus member names (trailing-underscore
  // convention) declared in any analyzed file — a .cpp iterating `open_`
  // declared in its header must still resolve.
  auto names = unorderedNames(f);
  names.insert(crossFileMembers.begin(), crossFileMembers.end());
  if (names.empty()) return;
  const auto floats = floatNames(f);
  const auto& toks = f.lex.tokens;
  const auto& match = f.scopes.match;

  const auto checkLoop = [&](std::size_t forTok, std::size_t bodyBegin,
                             std::size_t bodyEnd, const std::string& cont) {
    const std::string sink = bodySink(f, bodyBegin, bodyEnd, floats);
    if (sink.empty()) return;
    ctx.report(toks[forTok].line, "det-unordered-iteration",
               "iteration over unordered container `" + cont + "` " + sink +
                   ": hash-table order is nondeterministic and breaks "
                   "byte-identical artifacts; sort keys first or use an "
                   "ordered container");
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for over an unordered container.
    if (isIdent(toks[i], "for") && isPunct(toks[i + 1], "(")) {
      const std::size_t headClose = match[i + 1];
      if (headClose == kNone) continue;
      // Find the range-for ':' at top level inside the head.
      std::size_t colon = kNone;
      for (std::size_t q = i + 2; q < headClose; ++q) {
        const Token& u = toks[q];
        if (u.kind == Tok::kPunct &&
            (u.text == "(" || u.text == "[" || u.text == "{")) {
          if (match[q] != kNone && match[q] < headClose) q = match[q];
          continue;
        }
        if (isPunct(u, ";")) {  // classic for — not a range-for
          colon = kNone;
          break;
        }
        if (isPunct(u, ":")) {
          colon = q;
          break;
        }
      }
      if (colon == kNone) continue;
      std::string cont;
      for (std::size_t q = colon + 1; q < headClose; ++q)
        if (toks[q].kind == Tok::kIdent && names.count(toks[q].text) != 0)
          cont = toks[q].text;
      if (cont.empty()) continue;
      std::size_t bodyBegin = headClose + 1;
      std::size_t bodyEnd = bodyBegin;
      if (bodyBegin < toks.size() && isPunct(toks[bodyBegin], "{")) {
        bodyEnd = match[bodyBegin] == kNone ? toks.size() : match[bodyBegin];
      } else {
        while (bodyEnd < toks.size() && !isPunct(toks[bodyEnd], ";")) ++bodyEnd;
      }
      checkLoop(i, bodyBegin, bodyEnd, cont);
    }
    // `while (!c.empty())` driving `c.begin()` completion loops.
    if (isIdent(toks[i], "while") && isPunct(toks[i + 1], "(")) {
      const std::size_t condClose = match[i + 1];
      if (condClose == kNone) continue;
      std::string cont;
      bool usesBegin = false;
      for (std::size_t q = i + 2; q < condClose; ++q)
        if (toks[q].kind == Tok::kIdent && names.count(toks[q].text) != 0)
          cont = toks[q].text;
      if (cont.empty()) continue;
      std::size_t bodyBegin = condClose + 1;
      std::size_t bodyEnd = bodyBegin;
      if (bodyBegin < toks.size() && isPunct(toks[bodyBegin], "{")) {
        bodyEnd = match[bodyBegin] == kNone ? toks.size() : match[bodyBegin];
      } else {
        while (bodyEnd < toks.size() && !isPunct(toks[bodyEnd], ";")) ++bodyEnd;
      }
      for (std::size_t q = bodyBegin; q < bodyEnd; ++q)
        if (isIdent(toks[q], "begin") && q > 0 &&
            toks[q - 1].kind == Tok::kPunct &&
            (toks[q - 1].text == "." || toks[q - 1].text == "->"))
          usesBegin = true;
      if (!usesBegin) continue;
      ctx.report(toks[i].line, "det-unordered-iteration",
                 "draining unordered container `" + cont +
                     "` via .begin() consumes entries in hash-table order; "
                     "drain in sorted key order so artifacts stay "
                     "byte-identical");
    }
  }
}

// ---------------------------------------------------------------------------
// thread-safety: static-mutable and shard-global-read
// ---------------------------------------------------------------------------

void staticMutableRule(FileCtx& ctx) {
  const AnalyzedFile& f = ctx.f;
  if (!f.inSimcore && !f.inNetsim) return;
  const auto& toks = f.lex.tokens;
  // Namespace-scope declarations (with or without `static` — the scope
  // tracker sees what the old keyword regex could not).
  for (const NamespaceVar& v : f.scopes.namespaceVars) {
    if (v.isExempt) continue;
    ctx.report(v.line, "static-mutable",
               "mutable namespace-scope state `" + v.name +
                   "` in a layer that parallelFor runs on worker threads; "
                   "make it const/constexpr/thread_local/atomic, or add `// "
                   "srclint:allow(static-mutable): <what synchronises it>`");
  }
  // Function-local statics.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!isIdent(toks[i], "static")) continue;
    if (ctx.f.scopes.enclosingCallable(i) == -1) continue;
    bool exempt = false;
    std::string name;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind == Tok::kPunct &&
          (t.text == ";" || t.text == "=" || t.text == "{" || t.text == "("))
        break;
      if (t.kind == Tok::kIdent) {
        if (t.text == "const" || t.text == "constexpr" ||
            t.text == "consteval" || t.text == "thread_local" ||
            t.text == "atomic" || t.text == "atomic_flag" ||
            t.text == "mutex" || t.text == "shared_mutex" ||
            t.text == "once_flag")
          exempt = true;
        name = t.text;
      }
    }
    // `static_cast` and friends lex as their own identifiers, so a plain
    // `static` here really is a storage-class specifier.
    if (exempt || name.empty()) continue;
    ctx.report(toks[i].line, "static-mutable",
               "function-local static `" + name +
                   "` in a layer that parallelFor runs on worker threads; "
                   "make it const/thread_local/atomic or guard it with a named "
                   "mutex (// srclint:allow(static-mutable): ...)");
  }
}

void shardGlobalReadRule(const std::vector<AnalyzedFile>& files,
                         std::vector<FileCtx>& ctxs) {
  // Pass 1: mutable namespace-scope variables across src/.
  struct GlobalDecl {
    const AnalyzedFile* file;
    std::uint32_t line;
    std::size_t declTok;
  };
  std::map<std::string, GlobalDecl> globals;
  for (const AnalyzedFile& f : files) {
    if (!f.inSrc) continue;
    for (const NamespaceVar& v : f.scopes.namespaceVars)
      if (!v.isExempt)
        globals.emplace(v.name, GlobalDecl{&f, v.line, v.declTok});
  }
  if (globals.empty()) return;

  const auto gConvention = [](const std::string& n) {
    return n.size() >= 2 && n[0] == 'g' &&
           std::isupper(static_cast<unsigned char>(n[1])) != 0;
  };

  // Pass 2: reads from simcore/netsim function bodies.
  for (FileCtx& ctx : ctxs) {
    const AnalyzedFile& f = ctx.f;
    if (!f.inSimcore && !f.inNetsim) continue;
    const auto& toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      const auto it = globals.find(t.text);
      if (it == globals.end()) continue;
      const GlobalDecl& g = it->second;
      const bool sameFile = g.file == &f;
      // Cross-file matches only bind through the project's gName
      // convention; arbitrary names would collide with locals.
      if (!sameFile && !gConvention(t.text)) continue;
      if (sameFile && g.declTok == i) continue;  // the declaration itself
      if (f.scopes.enclosingCallable(i) == -1) continue;
      // Member/scope access spells a different entity.
      if (i > 0 && toks[i - 1].kind == Tok::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
           toks[i - 1].text == "::"))
        continue;
      ctx.report(t.line, "shard-global-read",
                 "`" + t.text +
                     "` is mutable namespace-scope state (declared at " +
                     g.file->lex.path + ":" + std::to_string(g.line) +
                     "); parallelFor worker threads race on it — keep it per "
                     "simulation or in a synchronized registry");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& ruleRegistry() { return kRules; }

const RuleInfo* findRule(const std::string& name) {
  for (const RuleInfo& r : kRules)
    if (name == r.name) return &r;
  return nullptr;
}

AnalyzedFile analyze(LexedFile lexed) {
  AnalyzedFile f;
  f.lex = std::move(lexed);
  const std::string& name = f.lex.path;
  f.inSrc = name.find("src/") != std::string::npos;
  f.inBench = name.find("bench/") != std::string::npos;
  for (const char* allowed : kWallClockAllowedPaths)
    if (name.find(allowed) != std::string::npos) f.wallClockAllowed = true;
  for (const char* allowed : kManifestStampAllowedPaths)
    if (name.find(allowed) != std::string::npos) f.manifestStampAllowed = true;
  f.inSimcore = name.find("src/simcore/") != std::string::npos;
  f.inNetsim = name.find("src/netsim/") != std::string::npos;
  f.inObs = name.find("src/obs/") != std::string::npos;
  f.inIolib = name.find("src/iolib/") != std::string::npos;
  f.isSchedulerCpp = name.find("simcore/scheduler.cpp") != std::string::npos;
  const auto dot = name.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : name.substr(dot);
  f.isHeader = ext == ".hpp" || ext == ".h";
  f.scopes = buildScopes(f.lex);
  return f;
}

std::vector<Finding> runRules(const std::vector<AnalyzedFile>& files) {
  std::vector<Finding> findings;
  std::vector<FileCtx> ctxs;
  ctxs.reserve(files.size());
  for (const AnalyzedFile& f : files) ctxs.push_back(FileCtx{f, findings, {}});
  // Unordered-container member names (m_/trailing-underscore convention)
  // visible across the file set, so a .cpp sees its header's members.
  std::set<std::string> unorderedMembers;
  for (const AnalyzedFile& f : files) {
    if (!f.inSrc) continue;
    for (const std::string& n : unorderedNames(f))
      if (!n.empty() && n.back() == '_') unorderedMembers.insert(n);
  }
  for (FileCtx& ctx : ctxs) {
    if (ctx.f.lex.ioError) {
      findings.push_back(Finding{ctx.f.lex.path, 0, "io", "cannot open file"});
      continue;
    }
    resolveAllows(ctx);
    preprocRules(ctx);
    tokenRules(ctx);
    ternaryCoAwaitRule(ctx);
    coroLambdaCaptureRule(ctx);
    coroSpawnDanglingRule(ctx);
    unorderedIterationRule(ctx, unorderedMembers);
    staticMutableRule(ctx);
  }
  shardGlobalReadRule(files, ctxs);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace srclint
