#include "util/checkpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::util {

namespace {

// Extracts the value of `"key": ...` from a single-line JSON object into
// `out` (quotes stripped for string values). Returns false when the key is
// absent or the line is malformed.
bool extract_field(std::string_view line, std::string_view key, std::string& out) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\": ";
  const auto pos = line.find(pattern);
  if (pos == std::string_view::npos) return false;
  std::size_t start = pos + pattern.size();
  if (start >= line.size()) return false;
  std::size_t end;
  if (line[start] == '"') {
    ++start;
    end = line.find('"', start);
  } else {
    end = line.find_first_of(",}", start);
  }
  if (end == std::string_view::npos || end < start) return false;
  out = std::string(line.substr(start, end - start));
  return !out.empty() || line[start - 1] == '"';
}

bool parse_u32_field(std::string_view line, std::string_view key, std::uint32_t& out) {
  std::string text;
  if (!extract_field(line, key, text)) return false;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

bool parse_double_field(std::string_view line, std::string_view key, double& out) {
  std::string text;
  if (!extract_field(line, key, text)) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size() && !text.empty();
}

// Lossless double → text: max_digits10 significant digits round-trip through
// strtod to the identical bit pattern, which is what makes resumed output
// byte-identical (the sweep prints with the same precision).
std::string format_double(double value) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

std::string header_line(const SweepParams& params) {
  std::ostringstream os;
  os << "{\"sweep\": {\"n\": " << params.n << ", \"t\": \"" << params.t << "\", \"beta_lo\": \""
     << params.beta_lo << "\", \"beta_hi\": \"" << params.beta_hi << "\", \"steps\": "
     << params.steps << ", \"engine\": \"" << params.engine << "\", \"resolved\": \""
     << params.resolved << "\", \"shard\": \"" << params.shard_index << "/"
     << params.shard_count << "\", \"scenario\": \"" << params.scenario
     << "\", \"tolerance\": \"" << params.tolerance << "\"}}";
  return os.str();
}

bool parse_row(std::string_view line, SweepRow& row) {
  if (!(parse_u32_field(line, "k", row.k) && parse_double_field(line, "beta", row.beta) &&
        parse_double_field(line, "p_win", row.p_win))) {
    return false;
  }
  // The bound is optional (rows without one predate it or had none), but a
  // present bound must parse.
  std::string text;
  if (!extract_field(line, "bound", text)) return true;
  return parse_double_field(line, "bound", row.bound);
}

bool parse_header(std::string_view line, SweepParams& params) {
  if (!(parse_u32_field(line, "n", params.n) && extract_field(line, "t", params.t) &&
        extract_field(line, "beta_lo", params.beta_lo) &&
        extract_field(line, "beta_hi", params.beta_hi) &&
        parse_u32_field(line, "steps", params.steps))) {
    return false;
  }
  // Engine/shard fields are parsed leniently so a pre-upgrade header still
  // PARSES — the field-by-field validation then rejects it by naming the
  // empty 'engine' field, which diagnoses far better than "unparseable".
  if (!extract_field(line, "engine", params.engine)) params.engine.clear();
  if (!extract_field(line, "resolved", params.resolved)) params.resolved.clear();
  std::string shard;
  if (extract_field(line, "shard", shard)) {
    const auto slash = shard.find('/');
    if (slash == std::string::npos) return false;
    std::uint32_t index = 0;
    std::uint32_t count = 0;
    const char* ib = shard.data();
    const char* ie = ib + slash;
    const char* cb = ib + slash + 1;
    const char* ce = shard.data() + shard.size();
    if (std::from_chars(ib, ie, index).ptr != ie || std::from_chars(cb, ce, count).ptr != ce ||
        count == 0 || index >= count) {
      return false;
    }
    params.shard_index = index;
    params.shard_count = count;
  } else {
    params.shard_index = 0;
    params.shard_count = 1;
  }
  // A header without the field predates the scenario seam, when every sweep
  // evaluated the homogeneous game — defaulting (rather than rejecting)
  // keeps old default-scenario checkpoints resumable.
  if (!extract_field(line, "scenario", params.scenario)) params.scenario = "homogeneous";
  // Likewise every sweep before the tolerance field ran at the default.
  if (!extract_field(line, "tolerance", params.tolerance)) {
    params.tolerance = SweepParams{}.tolerance;
  }
  return true;
}

std::string shard_text(const SweepParams& params) {
  return std::to_string(params.shard_index) + "/" + std::to_string(params.shard_count);
}

// First mismatching field between a parsed header and the requested params,
// as "field 'name': checkpoint X vs requested Y" — or empty when they agree.
std::string describe_mismatch(const SweepParams& header, const SweepParams& requested) {
  const auto field = [](const char* name, const std::string& have, const std::string& want) {
    return "field '" + std::string(name) + "': checkpoint " + (have.empty() ? "<absent>" : have) +
           " vs requested " + want;
  };
  if (header.n != requested.n) {
    return field("n", std::to_string(header.n), std::to_string(requested.n));
  }
  if (header.t != requested.t) return field("t", header.t, requested.t);
  if (header.beta_lo != requested.beta_lo) {
    return field("beta_lo", header.beta_lo, requested.beta_lo);
  }
  if (header.beta_hi != requested.beta_hi) {
    return field("beta_hi", header.beta_hi, requested.beta_hi);
  }
  if (header.steps != requested.steps) {
    return field("steps", std::to_string(header.steps), std::to_string(requested.steps));
  }
  // The scenario outranks the engine fields: a resume posing a different
  // game resolves to a different engine too, and naming the engine first
  // would hide the real disagreement.
  if (header.scenario != requested.scenario) {
    return field("scenario", header.scenario, requested.scenario);
  }
  // So does the tolerance, which decides whether a resident plan answers.
  if (header.tolerance != requested.tolerance) {
    return field("tolerance", header.tolerance, requested.tolerance);
  }
  if (header.engine != requested.engine) return field("engine", header.engine, requested.engine);
  if (header.resolved != requested.resolved) {
    return field("resolved", header.resolved, requested.resolved);
  }
  if (header.shard_index != requested.shard_index ||
      header.shard_count != requested.shard_count) {
    return field("shard", shard_text(header), shard_text(requested));
  }
  return std::string();
}

// Parse core shared by resume (SweepCheckpoint::load) and the read-only
// loader (read_checkpoint): header + complete rows + torn-tail detection.
// Returns the byte length of the valid prefix.
std::uintmax_t parse_checkpoint_file(const std::string& path, LoadedCheckpoint& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint: cannot read '" + path + "' (--resume needs an existing file)");
  }
  const std::string content{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  // Only newline-TERMINATED lines are complete records. Splitting on '\n'
  // (rather than std::getline, which silently accepts an unterminated final
  // line) is what catches the subtle torn case: a crash after writing a
  // record's bytes but before its newline. Such a record parses fine, but
  // keeping it would make valid_bytes exceed the data we can safely append
  // after — the next append would glue onto it, corrupting the file for the
  // resume after that. Any unterminated tail is a torn fragment: discarded
  // here, truncated away by the resume constructor.
  std::vector<std::string_view> lines;
  const std::string_view view{content};
  std::size_t pos = 0;
  while (pos < view.size()) {
    const std::size_t nl = view.find('\n', pos);
    if (nl == std::string_view::npos) break;
    lines.push_back(view.substr(pos, nl - pos));
    pos = nl + 1;
  }
  out.torn_tail = pos < view.size();
  if (lines.empty()) {
    throw CheckpointError("checkpoint: '" + path + "' is empty (missing header)");
  }
  if (!parse_header(lines.front(), out.params)) {
    throw CheckpointError("checkpoint: '" + path + "' has an unparseable header line");
  }
  if (out.params.steps > kMaxSweepSteps) {
    throw CheckpointError("checkpoint: '" + path + "' header has steps " +
                          std::to_string(out.params.steps) + ", past the sweep cap of " +
                          std::to_string(kMaxSweepSteps));
  }
  std::uintmax_t valid_bytes = lines.front().size() + 1;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    SweepRow row;
    // A newline-terminated line that fails to parse was written whole — that
    // is mid-file corruption, not a torn append, so it is an error anywhere.
    if (!parse_row(lines[i], row)) {
      throw CheckpointError("checkpoint: '" + path + "' line " + std::to_string(i + 1) +
                            " is corrupt");
    }
    if (row.k > out.params.steps) {
      throw CheckpointError("checkpoint: '" + path + "' line " + std::to_string(i + 1) +
                            " has k out of range");
    }
    if (row.k % out.params.shard_count != out.params.shard_index) {
      throw CheckpointError("checkpoint: '" + path + "' line " + std::to_string(i + 1) +
                            " has k " + std::to_string(row.k) + " outside shard " +
                            shard_text(out.params));
    }
    out.rows[row.k] = row;
    valid_bytes += lines[i].size() + 1;
  }
  return valid_bytes;
}

}  // namespace

SweepCheckpoint::SweepCheckpoint(std::string path, const SweepParams& params, bool resume)
    : path_(std::move(path)) {
  bool need_header = true;
  if (resume) {
    const std::uintmax_t valid_bytes = load(params);
    // Drop a torn trailing fragment (crash mid-append, no newline) so the
    // next append starts on a fresh line; a second resume then sees only
    // complete rows.
    std::error_code ec;
    if (std::filesystem::file_size(path_, ec) > valid_bytes && !ec) {
      std::filesystem::resize_file(path_, valid_bytes, ec);
      if (ec) {
        throw CheckpointError("checkpoint: cannot truncate torn line in '" + path_ + "'");
      }
    }
    need_header = false;
  }
  out_.open(path_, resume ? (std::ios::out | std::ios::app) : (std::ios::out | std::ios::trunc));
  if (!out_) {
    throw CheckpointError("checkpoint: cannot open '" + path_ + "' for writing");
  }
#if defined(__unix__) || defined(__APPLE__)
  sync_fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (sync_fd_ < 0) {
    throw CheckpointError("checkpoint: cannot open '" + path_ + "' for fsync");
  }
#endif
  if (need_header) {
    out_ << header_line(params) << "\n" << std::flush;
    if (!out_) throw CheckpointError("checkpoint: failed to write header to '" + path_ + "'");
    // The header must hit stable storage before any row: a resume that finds
    // rows but no header line rejects the whole file as corrupt.
    sync_to_disk("header");
  }
}

SweepCheckpoint::~SweepCheckpoint() {
#if defined(__unix__) || defined(__APPLE__)
  if (sync_fd_ >= 0) ::close(sync_fd_);
#endif
}

void SweepCheckpoint::sync_to_disk(const char* what) {
  out_.flush();
  if (!out_) {
    throw CheckpointError("checkpoint: failed to flush " + std::string(what) + " to '" + path_ +
                          "'");
  }
#if defined(__unix__) || defined(__APPLE__)
  // std::flush above only hands the bytes to the kernel; fsync is what makes
  // the append-then-crash contract hold across power loss, not just process
  // death. Regression note: before this existed, a host crash could lose
  // rows the sweep driver had already counted as durable, so a resume
  // recomputed nothing and the output silently missed blocks.
  if (::fsync(sync_fd_) != 0) {
    throw CheckpointError("checkpoint: fsync of " + std::string(what) + " failed for '" + path_ +
                          "'");
  }
  if (obs::metrics_enabled()) {
    static const obs::Counter fsyncs = obs::counter("checkpoint.fsyncs");
    fsyncs.add();
  }
#endif
}

std::uintmax_t SweepCheckpoint::load(const SweepParams& params) {
  DDM_SPAN("checkpoint.load");
  LoadedCheckpoint loaded;
  const std::uintmax_t valid_bytes = parse_checkpoint_file(path_, loaded);
  // Field-by-field identity check: the first mismatch is NAMED so the
  // operator learns exactly what differs (a resume under a different engine
  // or shard must not silently glue rows from a different sweep).
  const std::string mismatch = describe_mismatch(loaded.params, params);
  if (!mismatch.empty()) {
    throw CheckpointError("checkpoint: '" + path_ + "' was written by a different sweep (" +
                          mismatch + ")");
  }
  rows_ = std::move(loaded.rows);
  if (obs::metrics_enabled()) {
    static const obs::Counter loaded_counter = obs::counter("checkpoint.records_loaded");
    static const obs::Counter truncated = obs::counter("checkpoint.records_truncated");
    loaded_counter.add(rows_.size());
    if (loaded.torn_tail) truncated.add();
  }
  return valid_bytes;
}

LoadedCheckpoint read_checkpoint(const std::string& path) {
  DDM_SPAN("checkpoint.read");
  LoadedCheckpoint loaded;
  parse_checkpoint_file(path, loaded);
  return loaded;
}

void SweepCheckpoint::append(const SweepRow& row) {
  out_ << "{\"k\": " << row.k << ", \"beta\": " << format_double(row.beta)
       << ", \"p_win\": " << format_double(row.p_win);
  if (std::isfinite(row.bound)) out_ << ", \"bound\": " << format_double(row.bound);
  out_ << "}\n";
  if (!out_) throw CheckpointError("checkpoint: failed to append row to '" + path_ + "'");
  sync_to_disk("row");
  rows_[row.k] = row;
  static const obs::Counter written = obs::counter("checkpoint.records_written");
  written.add();
}

}  // namespace ddm::util
