#pragma once

// The world-level checkpoint commit protocol (the durability half of the
// fault-tolerance plane). A per-rank atomic shard write alone is not a
// consistent checkpoint: rank 0 can have published step 1000 while rank 3
// is still at step 900. Commits therefore go through two phases:
//
//   phase 1  every rank writes its shard atomically into <dir>/step-<N>/
//            (temp + fsync + rename; see checkpoint.hpp) and reports the
//            intended (bytes, crc32) of its file;
//   phase 2  after a barrier, one rank publishes <dir>/manifest-<N>.json
//            naming the step and the complete shard set with per-file CRCs,
//            then swings the <dir>/LATEST marker to it — both atomically.
//
// A failure at ANY point leaves either the previous committed checkpoint or
// the new one, never a torn mix: shard dirs are per-step (a new save never
// touches an old step's files), and a manifest only exists once every shard
// it names is durable. find_latest_valid_checkpoint walks markers newest-
// first, re-validating existence, size, and CRC of every named shard, so
// stale markers, missing files, truncations, and byte flips are all skipped
// in favor of the newest checkpoint that is actually whole.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ptdp/ckpt/checkpoint.hpp"
#include "ptdp/dist/comm.hpp"

namespace ptdp::ckpt {

/// One shard named by a manifest. `file` is relative to the checkpoint
/// root (e.g. "step-12/shard-p0-t0-d0.ckpt"). `dtype` is the run's weight
/// storage dtype ("f32"/"bf16") and `has_master_weights` whether the shard
/// carries fp32 master copies (mixed precision) — recorded so a resume can
/// reject a checkpoint from a different precision regime before opening
/// any shard. Manifests written before these fields default to f32/false.
struct ManifestEntry {
  std::string file;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  std::string dtype = "f32";
  bool has_master_weights = false;
};

struct Manifest {
  std::uint64_t step = 0;
  std::uint64_t extra = 0;
  std::vector<ManifestEntry> shards;
};

/// Serializes `m` to the manifest JSON format.
std::string manifest_to_json(const Manifest& m);

/// Parses manifest JSON (only the format manifest_to_json emits). Returns
/// nullopt on any malformed input — corrupted manifests are skipped, not
/// fatal.
std::optional<Manifest> parse_manifest_json(const std::string& text);

/// Phase-2 publish: atomically writes <dir>/manifest-<step>.json, then
/// atomically swings <dir>/LATEST to name it. The caller must have
/// barriered after all shard writes: every shard `m` names must already be
/// durable.
void write_manifest(const std::string& dir, const Manifest& m);

/// Reads and parses one manifest file; nullopt if missing/corrupt.
std::optional<Manifest> read_manifest(const std::string& path);

/// True iff every shard the manifest names exists under `dir` with the
/// recorded size and whole-file CRC.
bool validate_manifest(const std::string& dir, const Manifest& m);

/// A committed checkpoint resolved on disk.
struct CommittedCheckpoint {
  Manifest manifest;
  std::string dir;        ///< checkpoint root
  std::string shard_dir;  ///< <dir>/step-<step>
  std::uint64_t step() const { return manifest.step; }
};

/// Walks markers newest-first — the LATEST marker, then every
/// manifest-*.json by descending step — and returns the newest one whose
/// complete shard set validates. nullopt when no committed checkpoint
/// survives under `dir`. When `expected_dtype` is set ("f32"/"bf16"), the
/// newest valid checkpoint must have been written at that dtype: a
/// mismatch CHECK-fails with a clear error rather than silently resuming
/// from (or skipping past) a checkpoint of the wrong precision regime.
std::optional<CommittedCheckpoint> find_latest_valid_checkpoint(
    const std::string& dir,
    const std::optional<std::string>& expected_dtype = std::nullopt);

/// Deletes committed checkpoints older than the newest `keep` (their
/// manifest files and step directories). Invalid manifests older than the
/// newest valid one are garbage too. Never touches the step dir of a
/// retained manifest.
void gc_checkpoints(const std::string& dir, int keep);

// ---- the collective commit pair --------------------------------------------
//
// The one implementation of the protocol above over a dist::Comm. Callers
// (PtdpEngine, the quantized serving checkpoints) bring their own shard
// writer and loader; what a committed shard set is and how it is resolved
// lives only here.

/// One rank's part of a commit: its shard coordinates (the shard_path name
/// inside the step directory) and the precision stamp every manifest entry
/// carries (uniform across ranks, so rank 0 stamps it).
struct CommitSpec {
  std::uint64_t step = 0;
  int p = 0, t = 0, d = 0;
  std::string dtype = "f32";
  bool has_master_weights = false;
};

/// Writes this rank's shard to `path` and reports what it wrote.
using ShardWriter = std::function<SaveResult(const std::string& path)>;

/// Collective two-phase save over `comm`: rank 0 creates <dir>/step-<step>,
/// then a barrier; every rank writes its shard with `write_shard`; one
/// all-gather of (file, bytes, crc) doubles as the all-shards-durable
/// barrier; rank 0 publishes the stamped manifest and LATEST; a final
/// barrier, so no rank returns before the commit is visible.
void commit_checkpoint(const dist::Comm& comm, const std::string& dir,
                       const CommitSpec& spec, const ShardWriter& write_shard);

/// Collective resolve over `comm`: rank 0 finds the newest valid committed
/// step written at `dtype` (CHECK-failing, like find_latest_valid_checkpoint,
/// when the newest one is at another dtype) and broadcasts it, so every rank
/// loads the same step even if the directory changes concurrently. nullopt
/// on every rank when nothing is committed under `dir`.
std::optional<std::uint64_t> resolve_checkpoint(const dist::Comm& comm,
                                                const std::string& dir,
                                                const std::string& dtype);

}  // namespace ptdp::ckpt
