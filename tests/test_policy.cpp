// engine::CostModel — the profile-guided dispatch policy (engine/cost_model.hpp).
//
// Three contracts are pinned here:
//
//   1. The TABLE contract: save/load round-trips every cell, and every
//      corruption — truncation, flipped bytes, forged structure, a stale
//      format version — surfaces as a typed ddm::PolicyError naming the
//      knob that pointed at the file. A wrong table is never consulted.
//   2. The TOLERANCE contract (the property test): a loaded model may change
//      WHICH engine `auto` dispatches to, but never hands a request to the
//      compiled plan unless its certificate clears the REQUEST tolerance —
//      even under an adversarial table that lies about compiled being free.
//      Symmetric requests the plan cannot serve go to the certified ladder,
//      never to the uncertified double kernels, so that is the whole
//      accuracy surface.
//   3. The DEGRADATION contract: a sparse or irrelevant table falls back to
//      exactly the static rule's choice, and forced engines bypass the
//      model entirely.
#include "engine/cost_model.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/evaluator.hpp"
#include "engine/plan_cache.hpp"
#include "engine/policy.hpp"
#include "engine/registry.hpp"
#include "poly/plan_store.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm::engine {
namespace {

using util::Rational;

class PolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed like PlanStoreTest: the DDM_THREADS-pinned whole-suite
    // registrations run concurrently with the discovered per-test processes.
    dir_ = ::testing::TempDir() + "ddm_policy_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    CostModel::set_configured(nullptr);
  }

  void TearDown() override {
    CostModel::set_configured(nullptr);
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const { return dir_ + "/" + name; }

  // Writes `body` with a correct checksum trailer — the only way to reach
  // the structural validators behind the checksum gate.
  [[nodiscard]] std::string write_table(const std::string& name, const std::string& body) const {
    const std::uint64_t checksum = poly::plan_store_checksum(body.data(), body.size());
    std::ostringstream trailer;
    trailer << "checksum " << std::hex << std::setw(16) << std::setfill('0') << checksum << "\n";
    const std::string file = path(name);
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << body << trailer.str();
    return file;
  }

  std::string dir_;
};

[[nodiscard]] EvalRequest sweep(std::uint32_t n, Rational t, std::size_t points,
                                Rational tolerance) {
  std::vector<double> betas(points);
  for (std::size_t k = 0; k < points; ++k) {
    betas[k] = 0.2 + 0.6 * static_cast<double>(k + 1) / static_cast<double>(points + 1);
  }
  EvalRequest request = EvalRequest::symmetric(n, std::move(t), std::move(betas));
  request.tolerance = std::move(tolerance);
  return request;
}

// --- table round-trip ----------------------------------------------------

TEST_F(PolicyTest, RoundTripPreservesCellsAndPredictions) {
  CostModel model;
  model.set_cell("compiled", 4, 16, 3.5e-9);
  model.set_cell("compiled", 4, 256, 2.5e-9);
  model.set_cell("compiled", 12, 16, 6.0e-9);
  model.set_cell("compiled", 12, 256, 4.0e-9);
  model.set_cell("batch", 8, 64, 1.25e-6);
  model.save(path("table.ddmpolicy"));

  const auto loaded = CostModel::load(path("table.ddmpolicy"), "--policy");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->cell_count(), model.cell_count());
  const std::vector<CostCell> expected = model.cells();
  const std::vector<CostCell> actual = loaded->cells();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].engine, expected[i].engine);
    EXPECT_EQ(actual[i].n, expected[i].n);
    EXPECT_EQ(actual[i].batch, expected[i].batch);
    EXPECT_EQ(actual[i].seconds_per_point, expected[i].seconds_per_point);
  }
  for (const std::uint32_t n : {1u, 4u, 7u, 12u, 20u}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
      EXPECT_DOUBLE_EQ(loaded->predict("compiled", n, batch), model.predict("compiled", n, batch));
      EXPECT_DOUBLE_EQ(loaded->predict("batch", n, batch), model.predict("batch", n, batch));
    }
  }
}

TEST_F(PolicyTest, PredictInterpolatesWithinAndClampsOutsideTheGrid) {
  CostModel model;
  model.set_cell("compiled", 4, 16, 1.0e-9);
  model.set_cell("compiled", 4, 256, 2.0e-9);
  model.set_cell("compiled", 16, 16, 4.0e-9);
  model.set_cell("compiled", 16, 256, 8.0e-9);
  // Interior: between the corner values (geometric interpolation).
  const double interior = model.predict("compiled", 8, 64);
  EXPECT_GT(interior, 1.0e-9);
  EXPECT_LT(interior, 8.0e-9);
  // Grid points: exact.
  EXPECT_DOUBLE_EQ(model.predict("compiled", 4, 16), 1.0e-9);
  EXPECT_DOUBLE_EQ(model.predict("compiled", 16, 256), 8.0e-9);
  // Outside: clamped to the nearest edge, never extrapolated.
  EXPECT_DOUBLE_EQ(model.predict("compiled", 1, 1), 1.0e-9);
  EXPECT_DOUBLE_EQ(model.predict("compiled", 20, 100000), 8.0e-9);
  // Unknown engine: +infinity (drops out of candidacy).
  EXPECT_TRUE(std::isinf(model.predict("certified", 8, 64)));
}

TEST_F(PolicyTest, CheapestMatchesPredictArgmin) {
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<double> log_cost(-22.0, -4.0);
  std::uniform_int_distribution<std::uint32_t> pick_n(1, 16);
  const std::string_view ids[3] = {"compiled", "batch", "kernel"};
  for (int round = 0; round < 32; ++round) {
    CostModel model;
    for (const std::string_view engine : ids) {
      if (rng() % 4 == 0) continue;  // leave some engines unmeasured
      for (const std::uint32_t n : {2u, 8u, 14u}) {
        for (const std::uint32_t batch : {16u, 512u}) {
          model.set_cell(std::string(engine), n, batch, std::exp(log_cost(rng)));
        }
      }
    }
    for (int probe = 0; probe < 8; ++probe) {
      const std::uint32_t n = pick_n(rng);
      const std::size_t batch = std::size_t{1} << (rng() % 13);
      std::size_t expected = 3;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < 3; ++i) {
        const double predicted = model.predict(ids[i], n, batch);
        if (predicted < best) {
          best = predicted;
          expected = i;
        }
      }
      EXPECT_EQ(model.cheapest(ids, 3, n, batch), expected)
          << "n=" << n << " batch=" << batch << " round=" << round;
    }
  }
}

TEST_F(PolicyTest, ObserveCreatesRefinesAndDropsBadSamples) {
  CostModel model;
  model.observe("batch", 8, 256, 1.0e-6);
  EXPECT_EQ(model.cell_count(), 1u);
  const double created = model.predict("batch", 8, 256);
  EXPECT_DOUBLE_EQ(created, 1.0e-6);
  // EWMA refinement converges toward a persistent shift.
  for (int i = 0; i < 64; ++i) model.observe("batch", 8, 256, 4.0e-6);
  const double refined = model.predict("batch", 8, 256);
  EXPECT_GT(refined, 3.5e-6);
  EXPECT_LT(refined, 4.5e-6);
  // Bad samples (non-positive, non-finite) are dropped, not folded in.
  model.observe("batch", 8, 256, 0.0);
  model.observe("batch", 8, 256, -1.0);
  model.observe("batch", 8, 256, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(model.predict("batch", 8, 256), refined);
}

// --- rejection matrix ----------------------------------------------------

TEST_F(PolicyTest, TruncatedFileIsRejected) {
  CostModel model;
  model.set_cell("compiled", 4, 16, 1.0e-9);
  model.save(path("table.ddmpolicy"));
  std::string text;
  {
    std::ifstream in(path("table.ddmpolicy"), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  std::ofstream(path("truncated.ddmpolicy"), std::ios::binary)
      << text.substr(0, text.size() / 2);
  try {
    (void)CostModel::load(path("truncated.ddmpolicy"), "DDM_POLICY");
    FAIL() << "truncated table loaded";
  } catch (const PolicyError& error) {
    EXPECT_FALSE(error.stale());
    EXPECT_EQ(error.source(), "DDM_POLICY");
    EXPECT_NE(std::string(error.what()).find("DDM_POLICY"), std::string::npos);
  }
}

TEST_F(PolicyTest, FlippedByteIsRejectedByChecksum) {
  CostModel model;
  model.set_cell("compiled", 4, 16, 1.0e-9);
  model.save(path("table.ddmpolicy"));
  std::string text;
  {
    std::ifstream in(path("table.ddmpolicy"), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t at = text.find("cell compiled 4");
  ASSERT_NE(at, std::string::npos);
  text[at + 14] = '7';  // 4 -> 7: a plausible but wrong cell
  std::ofstream(path("flipped.ddmpolicy"), std::ios::binary) << text;
  try {
    (void)CostModel::load(path("flipped.ddmpolicy"), "--policy");
    FAIL() << "corrupt table loaded";
  } catch (const PolicyError& error) {
    EXPECT_FALSE(error.stale());
    EXPECT_NE(std::string(error.what()).find("checksum mismatch"), std::string::npos);
  }
}

TEST_F(PolicyTest, FutureFormatVersionIsRejectedAsStale) {
  // A version bump with a RECOMPUTED checksum: the only way to reach the
  // version validator (a sed-style edit breaks the checksum first).
  const std::string file = write_table(
      "future.ddmpolicy", "ddmpolicy v2\norigin calibrate\ncell compiled 4 16 1e-09\n");
  try {
    (void)CostModel::load(file, "--policy-table");
    FAIL() << "future-version table loaded";
  } catch (const PolicyError& error) {
    EXPECT_TRUE(error.stale());
    EXPECT_EQ(error.source(), "--policy-table");
    EXPECT_NE(std::string(error.what()).find("format version 2"), std::string::npos);
  }
}

TEST_F(PolicyTest, StructuralGarbageIsRejected) {
  // Each body carries a VALID checksum, so the structural validators are the
  // ones doing the rejecting.
  const struct {
    const char* name;
    const char* body;
  } cases[] = {
      {"magic", "ddmplans v1\ncell compiled 4 16 1e-09\n"},
      {"version", "ddmpolicy vX\ncell compiled 4 16 1e-09\n"},
      {"empty", "ddmpolicy v1\norigin calibrate\n"},
      {"zero_n", "ddmpolicy v1\ncell compiled 0 16 1e-09\n"},
      {"negative", "ddmpolicy v1\ncell compiled 4 16 -1e-09\n"},
      {"unknown", "ddmpolicy v1\nrow compiled 4 16 1e-09\n"},
      {"trailing", "ddmpolicy v1\ncell compiled 4 16 1e-09 extra\n"},
      {"duplicate", "ddmpolicy v1\ncell compiled 4 16 1e-09\ncell compiled 4 16 2e-09\n"},
  };
  for (const auto& test_case : cases) {
    const std::string file =
        write_table(std::string(test_case.name) + ".ddmpolicy", test_case.body);
    EXPECT_THROW((void)CostModel::load(file, "--policy"), PolicyError) << test_case.name;
  }
}

// --- the tolerance contract (property test) ------------------------------

// Random tables — including engines the table lies about — may change the
// tolerance the plan is held to, but a request is handed to the compiled
// plan ONLY when the plan's certificate clears the request tolerance, and a
// symmetric request is otherwise answered by the certified ladder. Every
// chosen engine must support the request. auto only uses resident plans, so
// the n <= 8 plans are made resident first (lowering n = 9..14 would cost
// seconds; those n still exercise the certified side of the contract).
TEST_F(PolicyTest, ModelNeverViolatesTheToleranceContract) {
  for (std::uint32_t n = 1; n <= 8; ++n) (void)PlanCache::instance().get_or_lower(n, Rational{n, 3});
  std::mt19937 rng(990817);
  std::uniform_real_distribution<double> log_cost(-24.0, -2.0);
  const Rational tolerances[] = {Rational{1, 1000000000000}, Rational{1, 1000000000},
                                 Rational{1, 1000000}, Rational{1, 1000}};
  const char* candidates[] = {"compiled", "batch", "kernel"};
  for (int round = 0; round < 40; ++round) {
    auto model = std::make_shared<CostModel>();
    for (const char* engine : candidates) {
      if (rng() % 5 == 0) continue;  // sparse tables are legal
      for (const std::uint32_t n : {2u, 6u, 10u, 14u}) {
        for (const std::uint32_t batch : {8u, 128u, 2048u}) {
          model->set_cell(engine, n, batch, std::exp(log_cost(rng)));
        }
      }
    }
    CostModel::set_configured(model);

    const std::uint32_t n = 1 + rng() % 14;
    const Rational t{n, 3};
    const Rational& tolerance = tolerances[rng() % 4];
    const EvalRequest request = sweep(n, t, 1 + rng() % 64, tolerance);
    const Selection selection = select(EnginePolicy{}, request);

    ASSERT_NE(selection.evaluator, nullptr);
    // A round can roll an entirely empty table; select() then stays on the
    // static branch and never consults the model at all.
    EXPECT_EQ(selection.model_consulted, !model->empty());
    EXPECT_TRUE(selection.evaluator->supports(request));
    const std::string id(selection.evaluator->id());
    EXPECT_TRUE(id == "compiled" || id == "certified") << id;
    if (id == "compiled") {
      const auto plan = PlanCache::instance().get_or_lower(request.n, request.t);
      EXPECT_LE(plan->max_error_bound(), request.tolerance.to_double())
          << "round " << round << ": compiled chosen past the request tolerance";
    }
  }
}

TEST_F(PolicyTest, AdversarialTableCannotForceCompiledPastTolerance) {
  // The table claims compiled is essentially free everywhere — but at
  // n = 10, t = 10/3 the (resident) plan certificate is ~5e-8, so a 1e-9
  // request tolerance must still exclude it.
  (void)PlanCache::instance().get_or_lower(10, Rational{10, 3});
  auto liar = std::make_shared<CostModel>();
  for (const std::uint32_t n : {1u, 8u, 16u}) {
    for (const std::uint32_t batch : {1u, 4096u}) {
      liar->set_cell("compiled", n, batch, 1.0e-15);
      liar->set_cell("batch", n, batch, 1.0);
      liar->set_cell("kernel", n, batch, 1.0);
    }
  }
  CostModel::set_configured(liar);
  const EvalRequest request = sweep(10, Rational{10, 3}, 16, Rational{1, 1000000000});
  const Selection selection = select(EnginePolicy{}, request);
  ASSERT_NE(selection.evaluator, nullptr);
  EXPECT_EQ(selection.evaluator->id(), "certified");
  EXPECT_TRUE(selection.fallback);
  EXPECT_NE(selection.note.find("certificate"), std::string::npos);

  // Relaxing the tolerance readmits compiled, and the lying table picks it.
  const EvalRequest relaxed = sweep(10, Rational{10, 3}, 16, Rational{1, 1000});
  const Selection reselect = select(EnginePolicy{}, relaxed);
  EXPECT_EQ(reselect.evaluator->id(), "compiled");
}

// --- degradation and bypass ----------------------------------------------

TEST_F(PolicyTest, SparseTableDegradesToTheStaticChoice) {
  // Cells only for an engine that is never an auto candidate: every
  // candidate predicts +infinity and the choice is the static rule's.
  auto irrelevant = std::make_shared<CostModel>();
  irrelevant->set_cell("mc", 4, 16, 1.0e-9);
  const EvalRequest request = sweep(4, Rational{4, 3}, 8, Rational{1, 1000000000});
  CostModel::set_configured(nullptr);
  const Selection statically = select(EnginePolicy{}, request);
  CostModel::set_configured(irrelevant);
  const Selection modeled = select(EnginePolicy{}, request);
  EXPECT_TRUE(modeled.model_consulted);
  EXPECT_FALSE(statically.model_consulted);
  EXPECT_EQ(modeled.evaluator, statically.evaluator);
}

TEST_F(PolicyTest, ForcedEnginesBypassTheModel) {
  auto liar = std::make_shared<CostModel>();
  liar->set_cell("compiled", 6, 16, 1.0e-15);
  CostModel::set_configured(liar);
  EnginePolicy policy;
  policy.engine = "kernel";
  const Selection selection = select(policy, sweep(6, Rational{2}, 8, Rational{1, 1000000000}));
  EXPECT_EQ(selection.evaluator->id(), "kernel");
  EXPECT_FALSE(selection.model_consulted);
}

TEST_F(PolicyTest, UnconfiguredSelectKeepsTheStaticRule) {
  CostModel::set_configured(nullptr);
  (void)PlanCache::instance().get_or_lower(4, Rational{4, 3});  // auto uses resident plans only
  const Selection selection = select(EnginePolicy{}, sweep(4, Rational{4, 3}, 8,
                                                           Rational{1, 1000000000}));
  EXPECT_FALSE(selection.model_consulted);
  EXPECT_EQ(selection.evaluator->id(), "compiled");
}

}  // namespace
}  // namespace ddm::engine
