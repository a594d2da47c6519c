// report.hpp — the one request path of the ddm_cli subcommands, and the
// result printers they share.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "engine/registry.hpp"
#include "util/certify.hpp"
#include "util/checkpoint.hpp"

namespace ddm::cli {

struct Options;

/// Resolves `request` once, for the engine the options name: --engine=<id>,
/// "certified" under --certify (whose tolerance it sets on the request), or
/// else `default_engine`. Auto's fallback note goes to stderr. Callers that
/// evaluate a grid in blocks reuse the returned selection for every block.
[[nodiscard]] engine::Selection select_engine(const Options& options,
                                              engine::EvalRequest& request,
                                              std::string_view default_engine = "auto");

/// Evaluates `request` from `selection` through the engine layer's
/// degradation chain; a degraded answer's note goes to stderr. Nothing else
/// in ddm_cli evaluates P(beta).
[[nodiscard]] engine::EvalOutcome evaluate(const engine::Selection& selection,
                                           const engine::EvalRequest& request);

/// Prints a certified result block (value, enclosure, tier, ladder
/// counters). Reports the per-evaluation ladder counters
/// (CertifiedValue::stats), not a cumulative policy-attached view — across
/// several evaluations the latter would misreport each one's escalation
/// count.
void print_certified(const ddm::CertifiedValue& result, const util::Rational& tolerance);

/// Prints sweep rows as the JSON array `sweep` and `merge` both emit, one
/// {"n", "t", "beta", "p_win"[, "scenario"], "engine"[, "bound"]} object per
/// row: the scenario digest unless it is the paper's game, the bound when
/// it is finite.
void print_sweep_rows(std::uint32_t n, double t, const std::string& scenario,
                      std::string_view engine, std::span<const util::SweepRow> rows);

}  // namespace ddm::cli
