// status.hpp — the library's error taxonomy.
//
// Robustness contract (docs/robustness.md): failures are never silent.
// Numerical trouble in the fast double kernels surfaces as NumericError (or
// escalates through the certified ladder, util/certify.hpp), a parallel chunk
// that exhausts its retries surfaces as ParallelError carrying the chunk
// range and root cause, and checkpoint corruption surfaces as
// CheckpointError. All types derive from ddm::Error, itself a
// std::runtime_error, so call sites may catch at whichever granularity they
// need.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/resilience.hpp"

namespace ddm {

/// Root of the ddm error hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// A floating-point evaluation produced (or would have produced) a
/// non-finite or otherwise untrustworthy value — e.g. BigInt::to_double
/// overflowed to ±inf inside a kernel prefactor, or an inclusion-exclusion
/// sum lost all significant digits. The certified evaluators catch this and
/// escalate to a more rigorous tier; plain kernels throw it to the caller
/// instead of returning inf/NaN.
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& message) : Error(message) {}
};

/// Throws NumericError unless `value` is finite. `what` names the quantity
/// (kernel and operand) for the error message. Returns `value` so guards can
/// wrap expressions in place.
inline double require_finite(double value, const char* what) {
  if (!std::isfinite(value)) {
    throw NumericError(std::string(what) + ": non-finite value " + std::to_string(value) +
                       " (overflow or invalid operand; use the exact or certified evaluator)");
  }
  return value;
}

/// A chunk of a parallel region failed permanently: its body kept throwing
/// transient faults, or its results kept failing the caller's validation,
/// beyond the configured retry budget. Carries the chunk ordinal, the index
/// range it covered, the number of attempts made, and the root-cause message
/// of the final failure.
class ParallelError : public Error {
 public:
  ParallelError(std::string label, std::size_t chunk, std::size_t lo, std::size_t hi,
                unsigned attempts, std::string cause)
      : Error("parallel[" + label + "]: chunk " + std::to_string(chunk) + " [" +
              std::to_string(lo) + ", " + std::to_string(hi) + ") failed after " +
              std::to_string(attempts) + (attempts == 1 ? " attempt: " : " attempts: ") + cause),
        label_(std::move(label)),
        chunk_(chunk),
        lo_(lo),
        hi_(hi),
        attempts_(attempts),
        cause_(std::move(cause)) {}

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }
  [[nodiscard]] std::size_t chunk_begin() const noexcept { return lo_; }
  [[nodiscard]] std::size_t chunk_end() const noexcept { return hi_; }
  [[nodiscard]] unsigned attempts() const noexcept { return attempts_; }
  [[nodiscard]] const std::string& cause() const noexcept { return cause_; }

 private:
  std::string label_;
  std::size_t chunk_;
  std::size_t lo_;
  std::size_t hi_;
  unsigned attempts_;
  std::string cause_;
};

/// Partial-progress accounting carried by the cooperative-stop errors: how
/// many work units (parallel chunks, ladder tiers, request attempts — the
/// label says which) completed before the evaluation was cut off.
class StoppedError : public Error {
 public:
  StoppedError(const std::string& message, std::string label, std::size_t completed,
               std::size_t total)
      : Error(message), label_(std::move(label)), completed_(completed), total_(total) {}

  /// Region / ladder / request label the stop struck.
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  /// Work units finished before the stop.
  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }
  /// Work units the evaluation would have run.
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  std::string label_;
  std::size_t completed_;
  std::size_t total_;
};

/// An evaluation was cut off because its RunControl deadline passed. The
/// result is *absent*, not approximate: callers that can still answer under
/// pressure degrade explicitly (engine::evaluate_resilient) rather than
/// returning a silently truncated value.
class DeadlineExceeded : public StoppedError {
 public:
  // NB: `label` must not be moved into the base while the sibling argument
  // still reads it — argument evaluation order is unspecified.
  DeadlineExceeded(const std::string& label, std::size_t completed, std::size_t total)
      : StoppedError("deadline exceeded in " + label + " after " + std::to_string(completed) +
                         " of " + std::to_string(total) + " work units",
                     label, completed, total) {}
};

/// An evaluation was cut off because its CancelToken fired. Unlike a missed
/// deadline this is never degraded around — the caller asked for the work to
/// stop, so the error propagates to them as-is.
class Cancelled : public StoppedError {
 public:
  Cancelled(const std::string& label, std::size_t completed, std::size_t total)
      : StoppedError("cancelled in " + label + " after " + std::to_string(completed) + " of " +
                         std::to_string(total) + " work units",
                     label, completed, total) {}
};

/// Throws Cancelled or DeadlineExceeded, carrying `completed` of `total`
/// work units, when `control` says stop; returns at once for an inert one.
inline void throw_if_stopped(const util::RunControl& control, const std::string& label,
                             std::size_t completed, std::size_t total) {
  switch (control.should_stop()) {
    case util::StopReason::kNone:
      return;
    case util::StopReason::kCancelled:
      throw Cancelled(label, completed, total);
    case util::StopReason::kDeadline:
      throw DeadlineExceeded(label, completed, total);
  }
}

/// A sweep checkpoint file could not be used: unreadable, wrong header
/// (parameters differ from the run being resumed), or unparseable row.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& message) : Error(message) {}
};

/// A persisted compiled plan (poly/plan_store.hpp) failed validate-on-load:
/// bad magic/checksum, truncated payload, non-monotonic breakpoints, a
/// certificate that no longer matches the stored bound, or a stale format
/// version. Carries the offending (n, t) so fleet operators can tell WHICH
/// plan file is bad, and `stale()` distinguishes a version skew (safe to
/// re-lower and overwrite) from genuine corruption.
class PlanStoreError : public Error {
 public:
  PlanStoreError(const std::string& reason, std::uint32_t n, std::string t, std::string path,
                 bool stale = false)
      : Error("plan store: plan (n=" + std::to_string(n) + ", t=" + t + ") in '" + path +
              "': " + reason),
        n_(n),
        t_(std::move(t)),
        path_(std::move(path)),
        stale_(stale) {}

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] const std::string& t() const noexcept { return t_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// True when the file merely predates the current format version (the
  /// cache counts these as `engine.store.stale` and re-lowers).
  [[nodiscard]] bool stale() const noexcept { return stale_; }

 private:
  std::uint32_t n_;
  std::string t_;
  std::string path_;
  bool stale_;
};

/// A DDM_FAULT_PLAN string (util/fault.hpp) does not match the plan grammar.
class FaultPlanError : public Error {
 public:
  explicit FaultPlanError(const std::string& message) : Error(message) {}
};

}  // namespace ddm
