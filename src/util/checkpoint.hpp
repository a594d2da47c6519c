// checkpoint.hpp — crash-safe, append-only sweep checkpoints.
//
// `ddm_cli sweep` evaluates a β-grid that can run for hours at large n. The
// checkpoint file makes that restartable: a JSONL file whose first line
// records the sweep parameters and every following line one completed row,
// appended (and flushed) as soon as its block finishes. A killed sweep
// resumed with `--resume <file>` skips the completed rows and recomputes
// only the missing ones; because every row goes through the identical serial
// evaluator and doubles are printed at max_digits10 (lossless round-trip),
// the resumed output is byte-identical to an uninterrupted run.
//
// Format (one JSON object per line):
//   {"sweep": {"n": 4, "t": "4/3", "beta_lo": "0", "beta_hi": "1",
//              "steps": 100, "engine": "auto", "resolved": "batch",
//              "shard": "0/1", "scenario": "homogeneous", "tolerance": "1/1000000000"}}
//   {"k": 0, "beta": 0, "p_win": 0.62, "bound": 1.5e-13}
//   ...
// The header records the FULL identity of the run: the grid, the requested
// engine, the engine that actually produced the rows (auto mode can resolve
// differently across environments, and rows from different engines must
// never be glued together), the shard assignment for sharded sweeps
// (`ddm_cli sweep --shard=i/k`), the game and the request tolerance. A
// resume validates every field and rejects with the first mismatching field
// NAMED — a checkpoint from a different grid, engine, or shard must fail
// loudly, not silently mix rows.
// A crash can tear at most the final line (appends are single writes); a
// torn trailing line fails to parse and is truncated away on resume, so the
// recomputed row starts on a fresh line. Corruption
// anywhere else raises ddm::CheckpointError. See docs/robustness.md.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <string>

namespace ddm::util {

/// The largest grid a sweep may have: steps + 1 points, so the point count
/// never wraps a uint32_t. `ddm_cli sweep` rejects a larger `steps`, and a
/// checkpoint header past it is a CheckpointError.
inline constexpr std::uint32_t kMaxSweepSteps = 10'000'000;

/// The sweep parameters stamped into the checkpoint header. Rational-valued
/// fields are kept as their exact "a/b" strings so header comparison is
/// exact, not floating-point.
struct SweepParams {
  std::uint32_t n = 0;
  std::string t;
  std::string beta_lo;
  std::string beta_hi;
  std::uint32_t steps = 0;
  /// Engine the caller requested ("auto" or a forced id). Empty in headers
  /// written before the field existed — such checkpoints fail resume
  /// validation by naming the 'engine' field.
  std::string engine;
  /// Engine that actually produced the rows (auto mode resolves to one).
  std::string resolved;
  /// Shard assignment: this file holds grid rows with k % shard_count ==
  /// shard_index. An unsharded sweep is shard 0/1.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Canonical scenario digest of the game the rows evaluate
  /// (engine/scenario.hpp): "homogeneous" for the paper's default, e.g.
  /// "heterogeneous:1/2,1,2" otherwise. Headers written before the field
  /// existed parse as "homogeneous" — exactly the game they were computed
  /// under — so old default-scenario checkpoints keep resuming; rows from
  /// different games can never be glued together.
  std::string scenario = "homogeneous";
  /// The request tolerance as exact "a/b" text (it picks the certified rung
  /// that answers a row). Headers without the field parse as this default,
  /// the tolerance of every sweep run without `--certify=tol`.
  std::string tolerance = "1/1000000000";

  friend bool operator==(const SweepParams&, const SweepParams&) = default;
};

/// One completed sweep row: grid index k and the evaluated point, plus the
/// proven bound on |p_win − exact| when the row has one (+inf otherwise;
/// only finite bounds are written, so rows without one keep the
/// three-field form).
struct SweepRow {
  std::uint32_t k = 0;
  double beta = 0.0;
  double p_win = 0.0;
  double bound = std::numeric_limits<double>::infinity();
};

/// Append-only checkpoint writer/loader. Not thread-safe; the sweep driver
/// appends from the coordinating thread only.
class SweepCheckpoint {
 public:
  /// Fresh checkpoint: creates/truncates `path` and writes the header line.
  /// Resume (`resume == true`): loads `path`, validates its header against
  /// `params` (ddm::CheckpointError on mismatch or mid-file corruption),
  /// keeps all complete rows, silently discards a torn trailing line, and
  /// reopens the file for appending.
  SweepCheckpoint(std::string path, const SweepParams& params, bool resume);

  /// Rows recovered at construction plus rows appended since, keyed by k.
  [[nodiscard]] const std::map<std::uint32_t, SweepRow>& completed() const noexcept {
    return rows_;
  }
  [[nodiscard]] bool has(std::uint32_t k) const { return rows_.count(k) != 0; }

  /// Appends one row as a single line, flushes, AND fsyncs, so the row is
  /// durable on disk — not just in the OS page cache — before the next block
  /// starts (a machine crash, not merely a killed process, can tear at most
  /// the final line). Throws ddm::CheckpointError on I/O or fsync error.
  void append(const SweepRow& row);

  ~SweepCheckpoint();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Loads and validates the file; returns the byte length of the valid
  /// prefix (header + complete rows), which the constructor uses to truncate
  /// a torn trailing fragment before reopening for append.
  std::uintmax_t load(const SweepParams& params);

  /// Pushes the ofstream buffer to the OS, then fsyncs the file descriptor
  /// so the bytes reach stable storage. Throws ddm::CheckpointError when
  /// either step fails; `what` names the record being persisted.
  void sync_to_disk(const char* what);

  std::string path_;
  std::map<std::uint32_t, SweepRow> rows_;
  std::ofstream out_;
  /// Raw fd on the same file, held only for fsync(2) — std::ofstream offers
  /// no portable way to reach the descriptor. -1 on platforms without fsync.
  int sync_fd_ = -1;
};

/// A checkpoint parsed WITHOUT resuming it: header params plus every
/// complete row. `ddm_cli merge` reads shard checkpoints this way — the file
/// is never opened for writing and a torn trailing fragment is reported, not
/// truncated. Throws ddm::CheckpointError on unreadable files, unparseable
/// headers, mid-file corruption, or out-of-range row indices.
struct LoadedCheckpoint {
  SweepParams params;
  std::map<std::uint32_t, SweepRow> rows;
  bool torn_tail = false;
};

[[nodiscard]] LoadedCheckpoint read_checkpoint(const std::string& path);

}  // namespace ddm::util
