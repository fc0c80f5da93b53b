#include "ptdp/ckpt/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ptdp/ckpt/checkpoint.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/check.hpp"
#include "ptdp/runtime/log.hpp"
#include "ptdp/runtime/stopwatch.hpp"

namespace ptdp::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kLatestName = "LATEST";

std::string manifest_name(std::uint64_t step) {
  return "manifest-" + std::to_string(step) + ".json";
}

// Step encoded in a "manifest-<step>.json" file name; nullopt otherwise.
std::optional<std::uint64_t> step_from_manifest_name(const std::string& name) {
  constexpr const char* prefix = "manifest-";
  constexpr const char* suffix = ".json";
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) return std::nullopt;
  const std::string digits =
      name.substr(9, name.size() - 9 - 5);  // strlen(prefix), strlen(suffix)
  if (digits.empty()) return std::nullopt;
  std::uint64_t step = 0;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    step = step * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return step;
}

// Minimal scanner for the JSON this module itself writes. `pos` advances
// past the parsed token; any mismatch returns false (→ manifest skipped).
bool skip_ws(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  return pos < s.size();
}

bool expect(const std::string& s, std::size_t& pos, char c) {
  if (!skip_ws(s, pos) || s[pos] != c) return false;
  ++pos;
  return true;
}

bool parse_string(const std::string& s, std::size_t& pos, std::string* out) {
  if (!expect(s, pos, '"')) return false;
  out->clear();
  while (pos < s.size() && s[pos] != '"') {
    if (s[pos] == '\\') return false;  // we never emit escapes
    out->push_back(s[pos++]);
  }
  return expect(s, pos, '"');
}

bool parse_u64(const std::string& s, std::size_t& pos, std::uint64_t* out) {
  if (!skip_ws(s, pos)) return false;
  if (!std::isdigit(static_cast<unsigned char>(s[pos]))) return false;
  *out = 0;
  while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
    *out = *out * 10 + static_cast<std::uint64_t>(s[pos++] - '0');
  }
  return true;
}

bool parse_key(const std::string& s, std::size_t& pos, const char* key) {
  std::string k;
  return parse_string(s, pos, &k) && k == key && expect(s, pos, ':');
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace

std::string manifest_to_json(const Manifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"step\": " << m.step << ",\n";
  os << "  \"extra\": " << m.extra << ",\n";
  os << "  \"shards\": [\n";
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    const ManifestEntry& e = m.shards[i];
    os << "    { \"file\": \"" << e.file << "\", \"bytes\": " << e.bytes
       << ", \"crc\": " << e.crc << ", \"dtype\": \"" << e.dtype
       << "\", \"master\": " << (e.has_master_weights ? 1 : 0) << " }"
       << (i + 1 < m.shards.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::optional<Manifest> parse_manifest_json(const std::string& text) {
  Manifest m;
  std::size_t pos = 0;
  if (!expect(text, pos, '{')) return std::nullopt;
  if (!parse_key(text, pos, "step") || !parse_u64(text, pos, &m.step)) {
    return std::nullopt;
  }
  if (!expect(text, pos, ',') || !parse_key(text, pos, "extra") ||
      !parse_u64(text, pos, &m.extra)) {
    return std::nullopt;
  }
  if (!expect(text, pos, ',') || !parse_key(text, pos, "shards") ||
      !expect(text, pos, '[')) {
    return std::nullopt;
  }
  if (!skip_ws(text, pos)) return std::nullopt;
  if (text[pos] != ']') {
    while (true) {
      ManifestEntry e;
      std::uint64_t crc = 0;
      if (!expect(text, pos, '{') || !parse_key(text, pos, "file") ||
          !parse_string(text, pos, &e.file) || !expect(text, pos, ',') ||
          !parse_key(text, pos, "bytes") || !parse_u64(text, pos, &e.bytes) ||
          !expect(text, pos, ',') || !parse_key(text, pos, "crc") ||
          !parse_u64(text, pos, &crc)) {
        return std::nullopt;
      }
      if (crc > 0xFFFFFFFFull) return std::nullopt;
      e.crc = static_cast<std::uint32_t>(crc);
      // Optional precision fields (absent in manifests written before the
      // mixed-precision plane; ManifestEntry defaults cover those).
      if (!skip_ws(text, pos)) return std::nullopt;
      if (text[pos] == ',') {
        ++pos;
        std::uint64_t master = 0;
        if (!parse_key(text, pos, "dtype") || !parse_string(text, pos, &e.dtype) ||
            !expect(text, pos, ',') || !parse_key(text, pos, "master") ||
            !parse_u64(text, pos, &master) || master > 1) {
          return std::nullopt;
        }
        e.has_master_weights = master == 1;
      }
      if (!expect(text, pos, '}')) return std::nullopt;
      m.shards.push_back(std::move(e));
      if (!skip_ws(text, pos)) return std::nullopt;
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      break;
    }
  }
  if (!expect(text, pos, ']') || !expect(text, pos, '}')) return std::nullopt;
  if (m.shards.empty()) return std::nullopt;  // an empty commit is never valid
  return m;
}

void write_manifest(const std::string& dir, const Manifest& m) {
  PTDP_CHECK(!m.shards.empty()) << "refusing to commit an empty manifest";
  obs::Span span("ckpt_commit", obs::Cat::kCkpt,
                 {{"step", static_cast<std::int64_t>(m.step)},
                  {"shards", static_cast<std::int64_t>(m.shards.size())}});
  Stopwatch watch;
  const std::string name = manifest_name(m.step);
  write_file_atomic(dir + "/" + name, manifest_to_json(m));
  // The LATEST swing is the commit point for the fast path; even if it is
  // lost or stale, the manifest scan in find_latest_valid_checkpoint still
  // discovers the new checkpoint.
  write_file_atomic(dir + "/" + std::string(kLatestName), name + "\n");
  if (obs::metrics_on()) {
    auto& metrics = obs::MetricsRegistry::instance();
    metrics.histogram("ckpt.commit_ms").observe(watch.elapsed_ms());
    metrics.counter("ckpt.commits").add(1);
  }
}

std::optional<Manifest> read_manifest(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) return std::nullopt;
  return parse_manifest_json(*text);
}

bool validate_manifest(const std::string& dir, const Manifest& m) {
  for (const ManifestEntry& e : m.shards) {
    const std::string path = dir + "/" + e.file;
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec || size != e.bytes) return false;
    try {
      if (file_crc32(path) != e.crc) return false;
    } catch (const CheckError&) {
      return false;
    }
  }
  return true;
}

std::optional<CommittedCheckpoint> find_latest_valid_checkpoint(
    const std::string& dir, const std::optional<std::string>& expected_dtype) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) return std::nullopt;

  // Candidate manifest file names, newest first. The LATEST marker's target
  // goes first (fast path); then every manifest on disk by descending step,
  // so a stale or corrupt marker degrades to a scan instead of an error.
  std::vector<std::pair<std::uint64_t, std::string>> by_step;
  try {
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (const auto step = step_from_manifest_name(name)) {
        by_step.emplace_back(*step, name);
      }
    }
  } catch (const std::exception& e) {
    // directory_iterator's increment throws (the ec overload only covers
    // construction); a racing gc/rmdir must degrade to "partial listing",
    // not abort the recovery path.
    PTDP_LOG_WARN << "ckpt scan: directory listing aborted early (" << e.what() << ")";
  }
  std::sort(by_step.begin(), by_step.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<std::string> candidates;
  if (const auto latest = read_text_file(dir + "/" + kLatestName)) {
    std::string target = *latest;
    while (!target.empty() && (target.back() == '\n' || target.back() == '\r')) {
      target.pop_back();
    }
    if (step_from_manifest_name(target)) candidates.push_back(target);
  }
  for (const auto& [step, name] : by_step) {
    if (std::find(candidates.begin(), candidates.end(), name) == candidates.end()) {
      candidates.push_back(name);
    }
  }
  // Keep strict newest-first order even when LATEST is stale: a marker
  // pointing at an old (but valid) manifest must not shadow a newer one.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const std::string& a, const std::string& b) {
                     return step_from_manifest_name(a).value_or(0) >
                            step_from_manifest_name(b).value_or(0);
                   });

  for (const std::string& name : candidates) {
    // The scan must never throw past a bad candidate: a truncated or
    // garbage manifest-<N>.json (torn write, disk corruption, a kill mid-
    // commit) is an expected artifact of the crashes this module exists to
    // survive. Read/parse/validate failures — including anything the
    // filesystem or CRC layer throws — demote the candidate with a warning
    // and the scan moves on to the next-newest.
    std::optional<Manifest> m;
    try {
      m = read_manifest(dir + "/" + name);
      if (m && !validate_manifest(dir, *m)) {
        PTDP_LOG_WARN << "ckpt scan: skipping " << name
                      << " (shard validation failed: missing/short/corrupt shard)";
        continue;
      }
    } catch (const std::exception& e) {
      PTDP_LOG_WARN << "ckpt scan: skipping " << name << " (" << e.what() << ")";
      continue;
    }
    if (!m) {
      PTDP_LOG_WARN << "ckpt scan: skipping " << name
                    << " (unreadable or malformed manifest JSON)";
      continue;
    }
    if (expected_dtype) {
      // The newest valid checkpoint decides: resuming a run at a different
      // precision than it was checkpointed at is an operator error, not
      // something to silently skip past in search of an older match.
      for (const ManifestEntry& e : m->shards) {
        PTDP_CHECK_EQ(e.dtype, *expected_dtype)
            << "checkpoint " << name << " (shard " << e.file
            << ") was written with dtype " << e.dtype
            << " but this run uses dtype " << *expected_dtype
            << " — restart with the matching GptConfig.dtype or point at a "
               "different checkpoint dir";
      }
    }
    return CommittedCheckpoint{*m, dir, step_dir(dir, m->step)};
  }
  return std::nullopt;
}

void gc_checkpoints(const std::string& dir, int keep) {
  PTDP_CHECK_GE(keep, 1);
  std::error_code ec;
  std::vector<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (const auto step = step_from_manifest_name(entry.path().filename().string())) {
      steps.push_back(*step);
    }
  }
  std::sort(steps.begin(), steps.end(), std::greater<>());
  for (std::size_t i = static_cast<std::size_t>(keep); i < steps.size(); ++i) {
    fs::remove(dir + "/" + manifest_name(steps[i]), ec);
    fs::remove_all(step_dir(dir, steps[i]), ec);
  }
}

namespace {

// Wire format of the commit's metadata exchange: each rank reports the
// relative shard file name it wrote plus the intended (bytes, crc).
std::vector<std::uint8_t> pack_entry(const ManifestEntry& e) {
  std::vector<std::uint8_t> out(sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                                e.file.size());
  std::memcpy(out.data(), &e.bytes, sizeof(e.bytes));
  std::memcpy(out.data() + sizeof(e.bytes), &e.crc, sizeof(e.crc));
  std::memcpy(out.data() + sizeof(e.bytes) + sizeof(e.crc), e.file.data(),
              e.file.size());
  return out;
}

ManifestEntry unpack_entry(const std::vector<std::uint8_t>& in) {
  constexpr std::size_t header = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  PTDP_CHECK_GE(in.size(), header) << "malformed manifest-entry message";
  ManifestEntry e;
  std::memcpy(&e.bytes, in.data(), sizeof(e.bytes));
  std::memcpy(&e.crc, in.data() + sizeof(e.bytes), sizeof(e.crc));
  e.file.assign(reinterpret_cast<const char*>(in.data() + header),
                in.size() - header);
  return e;
}

}  // namespace

void commit_checkpoint(const dist::Comm& comm, const std::string& dir,
                       const CommitSpec& spec, const ShardWriter& write_shard) {
  const std::string sdir = step_dir(dir, spec.step);
  if (comm.rank() == 0) fs::create_directories(sdir);
  comm.barrier();  // the directory exists before any peer writes into it

  // Phase 1: every rank writes its own shard atomically.
  const std::string path = shard_path(sdir, spec.p, spec.t, spec.d);
  const SaveResult saved = write_shard(path);
  const ManifestEntry mine{fs::path(path).lexically_relative(dir).string(),
                           static_cast<std::uint64_t>(saved.bytes), saved.crc};

  // Phase 2: gather every rank's entry (doubling as the all-shards-durable
  // barrier), then rank 0 publishes the commit.
  const auto packed = pack_entry(mine);
  const auto all = comm.all_gather_variable(
      std::span<const std::uint8_t>(packed.data(), packed.size()));
  if (comm.rank() == 0) {
    Manifest m{spec.step, 0, {}};
    m.shards.reserve(all.size());
    for (const auto& msg : all) {
      ManifestEntry e = unpack_entry(msg);
      e.dtype = spec.dtype;
      e.has_master_weights = spec.has_master_weights;
      m.shards.push_back(std::move(e));
    }
    write_manifest(dir, m);
  }
  comm.barrier();  // no rank returns before the commit is visible
}

std::optional<std::uint64_t> resolve_checkpoint(const dist::Comm& comm,
                                                const std::string& dir,
                                                const std::string& dtype) {
  std::int64_t chosen = -1;
  if (comm.rank() == 0) {
    if (const auto best = find_latest_valid_checkpoint(dir, dtype)) {
      chosen = static_cast<std::int64_t>(best->step());
    }
  }
  comm.broadcast(std::span<std::int64_t>(&chosen, 1), 0);
  if (chosen < 0) return std::nullopt;
  return static_cast<std::uint64_t>(chosen);
}

}  // namespace ptdp::ckpt
