// ddm.hpp — umbrella header for the ddm library.
//
// Reproduction of Georgiades, Mavronicolas, Spirakis, "Optimal, Distributed
// Decision-Making: The Case of No Communication" (FCT'99 / full version
// 2000). See README.md for the API tour and DESIGN.md for the module map.
#pragma once

#include "combinat/binomial.hpp"     // IWYU pragma: export
#include "combinat/subsets.hpp"      // IWYU pragma: export
#include "core/baselines.hpp"        // IWYU pragma: export
#include "core/certified.hpp"        // IWYU pragma: export
#include "core/communication.hpp"    // IWYU pragma: export
#include "core/heterogeneous.hpp"    // IWYU pragma: export
#include "core/interval_rules.hpp"   // IWYU pragma: export
#include "core/metrics.hpp"          // IWYU pragma: export
#include "core/nonoblivious.hpp"     // IWYU pragma: export
#include "core/oblivious.hpp"        // IWYU pragma: export
#include "core/optimality.hpp"       // IWYU pragma: export
#include "core/protocol.hpp"         // IWYU pragma: export
#include "core/randomized_rules.hpp"     // IWYU pragma: export
#include "core/symmetric_threshold.hpp"  // IWYU pragma: export
#include "core/threshold_optimizer.hpp"  // IWYU pragma: export
#include "engine/engines.hpp"        // IWYU pragma: export
#include "engine/evaluator.hpp"      // IWYU pragma: export
#include "engine/plan_cache.hpp"     // IWYU pragma: export
#include "engine/policy.hpp"         // IWYU pragma: export
#include "engine/registry.hpp"       // IWYU pragma: export
#include "geom/mc_volume.hpp"        // IWYU pragma: export
#include "geom/polytope.hpp"         // IWYU pragma: export
#include "geom/volume.hpp"           // IWYU pragma: export
#include "poly/compiled.hpp"         // IWYU pragma: export
#include "poly/interpolate.hpp"      // IWYU pragma: export
#include "poly/multilinear.hpp"      // IWYU pragma: export
#include "poly/piecewise.hpp"        // IWYU pragma: export
#include "poly/polynomial.hpp"       // IWYU pragma: export
#include "poly/roots.hpp"            // IWYU pragma: export
#include "prob/cdf_poly.hpp"         // IWYU pragma: export
#include "prob/empirical.hpp"        // IWYU pragma: export
#include "prob/rng.hpp"              // IWYU pragma: export
#include "prob/uniform_sum.hpp"      // IWYU pragma: export
#include "sim/monte_carlo.hpp"       // IWYU pragma: export
#include "util/bigint.hpp"           // IWYU pragma: export
#include "util/certify.hpp"          // IWYU pragma: export
#include "util/checkpoint.hpp"       // IWYU pragma: export
#include "util/fault.hpp"            // IWYU pragma: export
#include "util/interval.hpp"         // IWYU pragma: export
#include "util/parallel.hpp"         // IWYU pragma: export
#include "util/rational.hpp"         // IWYU pragma: export
#include "util/status.hpp"           // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
