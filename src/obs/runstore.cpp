#include "obs/runstore.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/optrace.hpp"
#include "obs/runtimeprof.hpp"
#include "obs/telemetry.hpp"

namespace bgckpt::obs {

using json::escapeInto;

namespace {

namespace fs = std::filesystem;

void canonicalInto(std::string& out, const json::Value& v) {
  using Type = json::Value::Type;
  switch (v.type) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case Type::kNumber: {
      // Integral values print as integers so 256 and 256.0 hash alike;
      // %.12g keeps enough digits for any measurement this repo stores
      // while staying locale-independent.
      const double n = v.number;
      if (std::isfinite(n) && n == std::floor(n) && std::abs(n) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
        out += buf;
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", n);
        out += buf;
      }
      break;
    }
    case Type::kString:
      out.push_back('"');
      escapeInto(out, v.string);
      out.push_back('"');
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      if (v.array)
        for (const json::Value& e : *v.array) {
          if (!first) out.push_back(',');
          first = false;
          canonicalInto(out, e);
        }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      // Sort members by key; duplicate keys keep their relative order
      // (stable sort) so canonicalization is total, not partial.
      std::vector<const std::pair<std::string, json::Value>*> members;
      if (v.object)
        for (const auto& kv : *v.object) members.push_back(&kv);
      std::stable_sort(members.begin(), members.end(),
                       [](const auto* a, const auto* b) {
                         return a->first < b->first;
                       });
      out.push_back('{');
      bool first = true;
      for (const auto* kv : members) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('"');
        escapeInto(out, kv->first);
        out += "\":";
        canonicalInto(out, kv->second);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

bool manifestSchemaSupported(std::string_view version) {
  return version == kManifestSchemaVersion || version == kManifestSchemaV1;
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string canonicalJson(const json::Value& value) {
  std::string out;
  canonicalInto(out, value);
  return out;
}

std::string artifactSchemasFingerprint() {
  std::string fp = kManifestSchemaVersion;
  fp += ',';
  fp += Telemetry::kSchemaVersion;
  fp += ',';
  fp += OpTracer::kSchemaVersion;
  fp += ',';
  fp += kRuntimeProfSchemaVersion;
  fp += ',';
  fp += kLedgerSchemaVersion;
  return fp;
}

std::string ledgerKey(const json::Value& config, const std::string& gitRev,
                      const std::string& schemas) {
  std::string material = canonicalJson(config);
  material += '\n';
  material += gitRev;
  material += '\n';
  material += schemas;
  return hex16(fnv1a64(material));
}

std::string LedgerEntry::derivedKey() const {
  return ledgerKey(config, gitRev, schemas);
}

std::string RunStore::entryPath(const std::string& key) const {
  return dir_ + "/" + key + ".json";
}

bool RunStore::contains(const std::string& key) const {
  LedgerEntry entry;
  std::string err;
  return load(key, &entry, &err);
}

bool RunStore::put(const LedgerEntry& entry, std::string* err) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    if (err) *err = "cannot create " + dir_ + ": " + ec.message();
    return false;
  }
  const std::string path = entryPath(entry.key);
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot write " + path;
    return false;
  }
  const std::string perfText = canonicalJson(entry.perf);
  std::string configText = canonicalJson(entry.config);
  out << "{\n";
  out << "  \"schema\": \"" << kLedgerSchemaVersion << "\",\n";
  out << "  \"key\": \"" << entry.key << "\",\n";
  out << "  \"config_hash\": \"" << entry.configHash << "\",\n";
  std::string rev;
  escapeInto(rev, entry.gitRev);
  out << "  \"git_rev\": \"" << rev << "\",\n";
  out << "  \"schemas\": \"" << entry.schemas << "\",\n";
  out << "  \"config\": " << configText << ",\n";
  out << "  \"exit_code\": " << entry.exitCode << ",\n";
  char wall[40];
  std::snprintf(wall, sizeof(wall), "%.6f", entry.wallSeconds);
  out << "  \"wall_seconds\": " << wall << ",\n";
  out << "  \"payload_hash\": \"" << hex16(fnv1a64(perfText)) << "\",\n";
  out << "  \"perf\": " << perfText << "\n";
  out << "}\n";
  out.flush();
  if (!out) {
    if (err) *err = "write failed: " + path;
    return false;
  }
  return true;
}

bool RunStore::load(const std::string& key, LedgerEntry* out,
                    std::string* err) const {
  const std::string path = entryPath(key);
  std::ifstream in(path);
  if (!in) {
    if (err) *err = "no entry " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string parseErr;
  const auto doc = json::parse(ss.str(), &parseErr);
  if (!doc || !doc->isObject()) {
    if (err)
      *err = path + ": " +
             (parseErr.empty() ? "not a JSON object" : parseErr);
    return false;
  }
  const std::string schema = doc->stringOr("schema", "(none)");
  if (schema != kLedgerSchemaVersion) {
    if (err)
      *err = path + ": ledger schema \"" + schema +
             "\" not supported (this build reads \"" + kLedgerSchemaVersion +
             "\")";
    return false;
  }
  LedgerEntry e;
  e.key = doc->stringOr("key", "");
  e.configHash = doc->stringOr("config_hash", "");
  e.gitRev = doc->stringOr("git_rev", "");
  e.schemas = doc->stringOr("schemas", "");
  e.exitCode = static_cast<int>(doc->numberOr("exit_code", 0));
  e.wallSeconds = doc->numberOr("wall_seconds", 0);
  if (const json::Value* cfg = doc->find("config")) e.config = *cfg;
  if (const json::Value* perf = doc->find("perf")) e.perf = *perf;
  // Integrity: the filename key, the stored key, and the key re-derived
  // from the stored identity fields must all agree (an entry whose config
  // or provenance was edited reads as corrupt, not as a cache hit) ...
  if (e.key != key || e.derivedKey() != key) {
    if (err) *err = path + ": key mismatch (corrupt or tampered entry)";
    return false;
  }
  // ... and the perf payload must hash to the recorded value.
  const std::string payloadHash = doc->stringOr("payload_hash", "");
  if (payloadHash != hex16(fnv1a64(canonicalJson(e.perf)))) {
    if (err) *err = path + ": payload hash mismatch (corrupt entry)";
    return false;
  }
  if (e.configHash != hex16(fnv1a64(canonicalJson(e.config)))) {
    if (err) *err = path + ": config hash mismatch (corrupt entry)";
    return false;
  }
  *out = std::move(e);
  return true;
}

std::vector<LedgerEntry> RunStore::loadAll(
    std::vector<std::string>* errors) const {
  std::vector<LedgerEntry> entries;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) {
    if (errors) errors->push_back("cannot read " + dir_ + ": " + ec.message());
    return entries;
  }
  std::vector<std::string> keys;
  for (const auto& de : it) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    if (name.size() <= 5 || name.compare(name.size() - 5, 5, ".json") != 0)
      continue;
    keys.push_back(name.substr(0, name.size() - 5));
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) {
    LedgerEntry e;
    std::string err;
    if (load(key, &e, &err)) {
      entries.push_back(std::move(e));
    } else if (errors) {
      errors->push_back(err);
    }
  }
  return entries;
}

bool writeArtifactManifest(const std::string& artifactPath,
                           const ManifestInfo& info) {
  const std::string path = artifactPath + ".manifest.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto str = [](const std::string& s) {
    std::string out;
    escapeInto(out, s);
    return out;
  };
  std::fprintf(f, "{\n  \"schema_version\": \"%s\",\n",
               kManifestSchemaVersion);
  std::fprintf(f, "  \"artifact\": \"%s\",\n", str(info.artifact).c_str());
  std::fprintf(f, "  \"bench\": \"%s\",\n", str(info.bench).c_str());
  std::fprintf(f, "  \"git_rev\": \"%s\",\n", str(info.gitRev).c_str());
  std::fprintf(f, "  \"config_hash\": \"%s\",\n",
               str(info.configHash).c_str());
  std::fprintf(f, "  \"np\": %d,\n", info.np);
  std::fprintf(f, "  \"stack\": %d,\n", info.stack);
  std::fprintf(f, "  \"bucket_dt\": %.6g,\n", info.bucketDt);
  std::fprintf(f, "  \"flags\": [");
  for (std::size_t i = 0; i < info.flags.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 str(info.flags[i]).c_str());
  std::fprintf(f, "],\n  \"args\": [");
  for (std::size_t i = 0; i < info.args.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 str(info.args[i]).c_str());
  std::fprintf(f, "]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace bgckpt::obs
