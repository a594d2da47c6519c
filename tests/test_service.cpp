// net::EvalService — the serving core of ddm_serve, driven in-process.
//
// Three contracts of the reply are pinned here:
//   * a served answer never depends on which other requests shared the
//     queue: coalescing folds only jobs that would get the same answer (same
//     instance, engine, tolerance, trials, seed, scenario), and a coalesced
//     job's value and bound equal its solo reply's, randomized answers
//     included;
//   * every answer that has a proven bound carries it (`bound`), and auto
//     answers from a resident plan only when its certificate meets the
//     request's own tolerance;
//   * a deadline bounds worker time even inside the certified ladder's exact
//     rung, which polls its control once per outer term, inside the
//     symbolic `analyze`, which polls once per piece (and per recomputed
//     term while building), and inside every Monte Carlo estimator, which
//     polls once per block of trials.
#include "net/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/nonoblivious.hpp"
#include "engine/plan_cache.hpp"
#include "util/certify.hpp"
#include "util/rational.hpp"

namespace ddm::net {
namespace {

using util::Rational;

/// Text of a numeric field of a flat reply object, or "" when absent.
std::string field_text(const std::string& reply, const std::string& key) {
  const std::string pattern = "\"" + key + "\":";
  const std::size_t at = reply.find(pattern);
  if (at == std::string::npos) return {};
  const std::size_t start = at + pattern.size();
  return reply.substr(start, reply.find_first_of(",}", start) - start);
}

/// Blocks until `service` holds `depth` queued jobs (or fails after 10 s).
void wait_for_queue(const EvalService& service, std::size_t depth) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.queue_depth() < depth) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "queue never reached " << depth;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeCoalescing, KeysOnToleranceAndMatchesSoloReplies) {
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  // Two slow Monte Carlo jobs (never coalesced): once one runs and the other
  // waits, the only worker is busy for a whole job, so the three jobs below
  // are all queued when it next looks for twins.
  const std::string slow =
      R"({"op":"threshold","engine":"mc","n":3,"t":"1","beta":0.5,"trials":20000000})";
  std::vector<std::thread> blockers;
  for (int i = 0; i < 2; ++i) blockers.emplace_back([&] { (void)service.handle_line(slow); });
  wait_for_queue(service, 1);
  const std::vector<std::string> lines = {
      R"({"id":"a","op":"threshold","n":12,"t":"4","beta":0.375,"tol":0.001})",
      R"({"id":"b","op":"threshold","n":12,"t":"4","beta":0.5,"tol":1e-12})",
      R"({"id":"c","op":"threshold","n":12,"t":"4","beta":0.625,"tol":0.001})",
  };
  std::vector<std::string> replies(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    clients.emplace_back([&, i] { replies[i] = service.handle_line(lines[i]); });
    wait_for_queue(service, i + 2);  // fixes the queue order a, b, c
  }
  for (std::thread& client : clients) client.join();
  for (std::thread& blocker : blockers) blocker.join();

  // a and c share (n, t, tol): folded. b asked for another tolerance: alone.
  EXPECT_NE(replies[0].find("\"coalesced\":true"), std::string::npos) << replies[0];
  EXPECT_EQ(replies[1].find("coalesced"), std::string::npos) << replies[1];
  EXPECT_NE(replies[2].find("\"coalesced\":true"), std::string::npos) << replies[2];
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(replies[i].find("\"engine\":\"certified\""), std::string::npos) << replies[i];
    const std::string solo = service.handle_line(lines[i]);
    EXPECT_EQ(field_text(replies[i], "value"), field_text(solo, "value")) << lines[i];
    EXPECT_EQ(field_text(replies[i], "bound"), field_text(solo, "bound")) << lines[i];
    EXPECT_FALSE(field_text(solo, "bound").empty()) << solo;
  }
}

TEST(ServeCoalescing, KeysOnTrialsAndSeedAndMatchesSoloReplies) {
  // n = 16 under a heterogeneous game is past the exact cap, so auto answers
  // with seeded Monte Carlo: a coalesced point must draw the stream of its
  // own solo request, and jobs asking for another seed must not be folded.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const std::string slow =
      R"({"op":"threshold","engine":"mc","n":3,"t":"1","beta":0.5,"trials":20000000})";
  std::vector<std::thread> blockers;
  for (int i = 0; i < 2; ++i) blockers.emplace_back([&] { (void)service.handle_line(slow); });
  wait_for_queue(service, 1);
  const std::string game =
      R"("scenario":"heterogeneous:1/2,1,1/2,1,1/2,1,1/2,1,1/2,1,1/2,1,1/2,1,1/2,1")";
  const std::vector<std::string> lines = {
      R"({"id":"a","op":"threshold","n":16,"t":"4","beta":0.4,"trials":2000,"seed":7,)" + game +
          "}",
      R"({"id":"b","op":"threshold","n":16,"t":"4","beta":0.5,"trials":2000,"seed":8,)" + game +
          "}",
      R"({"id":"c","op":"threshold","n":16,"t":"4","beta":0.6,"trials":2000,"seed":7,)" + game +
          "}",
  };
  std::vector<std::string> replies(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    clients.emplace_back([&, i] { replies[i] = service.handle_line(lines[i]); });
    wait_for_queue(service, i + 2);  // fixes the queue order a, b, c
  }
  for (std::thread& client : clients) client.join();
  for (std::thread& blocker : blockers) blocker.join();

  // a and c share the seed: folded. b asked for another seed: alone.
  EXPECT_NE(replies[0].find("\"coalesced\":true"), std::string::npos) << replies[0];
  EXPECT_EQ(replies[1].find("coalesced"), std::string::npos) << replies[1];
  EXPECT_NE(replies[2].find("\"coalesced\":true"), std::string::npos) << replies[2];
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(replies[i].find("\"engine\":\"mc\""), std::string::npos) << replies[i];
    const std::string solo = service.handle_line(lines[i]);
    EXPECT_EQ(field_text(replies[i], "value"), field_text(solo, "value")) << lines[i];
  }
}

TEST(ServeBound, RepliesCarryTheirProvenBound) {
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  // n = 24 is past the O(3^n) kernels; auto answers from the certified
  // ladder, within its bound of the exact value.
  const std::string big = service.handle_line(R"({"op":"threshold","n":24,"t":"8","beta":0.375})");
  ASSERT_NE(big.find("\"ok\":true"), std::string::npos) << big;
  const double value = std::strtod(field_text(big, "value").c_str(), nullptr);
  const double bound = std::strtod(field_text(big, "bound").c_str(), nullptr);
  EXPECT_LE(bound, 1e-9);
  const Rational exact =
      core::symmetric_threshold_winning_probability(24, Rational{3, 8}, Rational{8});
  EXPECT_TRUE((util::exact_rational(value) - exact).abs() <= util::exact_rational(bound)) << big;
  // A cold small instance is a ladder point; once its plan is resident, the
  // compiled answer carries the plan certificate. An estimate has no bound.
  const std::string line = R"({"op":"threshold","n":6,"t":"2","beta":0.5})";
  const std::string cold = service.handle_line(line);
  EXPECT_NE(cold.find("\"engine\":\"certified\""), std::string::npos) << cold;
  EXPECT_FALSE(field_text(cold, "bound").empty()) << cold;
  (void)engine::PlanCache::instance().get_or_lower(6, Rational{2});
  const std::string small = service.handle_line(line);
  EXPECT_NE(small.find("\"engine\":\"compiled\""), std::string::npos) << small;
  EXPECT_FALSE(field_text(small, "bound").empty()) << small;
  const std::string mc = service.handle_line(
      R"({"op":"threshold","engine":"mc","n":6,"t":"2","beta":0.5,"trials":1000})");
  EXPECT_NE(mc.find("\"ok\":true"), std::string::npos) << mc;
  EXPECT_TRUE(field_text(mc, "bound").empty()) << mc;
}

TEST(ServeBound, ResidentPlanAnswersWithinTheRequestTolerance) {
  // auto holds a resident plan to the request's own tolerance: the (10, 10/3)
  // plan certifies ~5e-8, so once a forced compiled request has made it
  // resident a tol = 1e-5 request takes it, while the default 1e-9 request
  // stays on the certified ladder.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const std::string forced = service.handle_line(
      R"({"op":"threshold","engine":"compiled","n":10,"t":"10/3","beta":0.4})");
  ASSERT_NE(forced.find("\"engine\":\"compiled\""), std::string::npos) << forced;
  const std::string relaxed =
      service.handle_line(R"({"op":"threshold","n":10,"t":"10/3","beta":0.4,"tol":1e-5})");
  EXPECT_NE(relaxed.find("\"engine\":\"compiled\""), std::string::npos) << relaxed;
  const std::string bound = field_text(relaxed, "bound");
  ASSERT_FALSE(bound.empty()) << relaxed;
  EXPECT_LE(std::strtod(bound.c_str(), nullptr), 1e-5) << relaxed;
  const std::string strict =
      service.handle_line(R"({"op":"threshold","n":10,"t":"10/3","beta":0.4})");
  EXPECT_NE(strict.find("\"engine\":\"certified\""), std::string::npos) << strict;
}

TEST(ServeAuto, NamesTheCertifiedCapPastIt) {
  // auto answers every admitted n from the certified ladder, with a bound;
  // its cap is admission's, so n = 1001 is refused by name before any work.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const std::string answered =
      service.handle_line(R"({"op":"threshold","n":100,"t":"100/3","beta":0.3})");
  EXPECT_NE(answered.find("\"ok\":true"), std::string::npos) << answered;
  EXPECT_NE(answered.find("\"engine\":\"certified\""), std::string::npos) << answered;
  EXPECT_NE(answered.find("\"bound\":"), std::string::npos) << answered;
  const std::string refused =
      service.handle_line(R"({"op":"threshold","n":1001,"t":"22","beta":0.3})");
  EXPECT_NE(refused.find("\"error\":\"bad_request\""), std::string::npos) << refused;
  EXPECT_NE(refused.find("[1, 1000]"), std::string::npos) << refused;
  // Past n = 64 a tolerance below tier 0's bound (about 4e-11 at n = 500)
  // would send points to the exact rung, minutes each: refused by name.
  const std::string tight = service.handle_line(
      R"({"op":"threshold","n":500,"t":"500/3","beta":0.3,"tol":1e-13})");
  EXPECT_NE(tight.find("\"ok\":false"), std::string::npos) << tight;
  EXPECT_NE(tight.find("n <= 64"), std::string::npos) << tight;
  EXPECT_NE(tight.find("--engine=exact|certified"), std::string::npos) << tight;
}

TEST(ServeDeadline, CutsTheExactRungMidSum) {
  // Both rungs of the ladder poll the request's control once per outer
  // term. A forced exact point at n = 128 and a 53-bit beta costs about
  // 0.28 s of integer sums (n = 64 costs only about 13 ms, under the
  // budget), so a 20 ms budget must cut it within half of that. An auto
  // point at n = 1000 costs 30 to 55 ms of tier 0 (one core of a shared
  // 4-vCPU x86-64 VM), so a 5 ms budget must stop it within three quarters
  // of its measured cost: the limit then sits well above the cut plus the
  // service's own overhead.
  const auto cost_of = [](const auto& evaluate) {
    const auto started = std::chrono::steady_clock::now();
    evaluate();
    return std::chrono::steady_clock::now() - started;
  };
  const auto tier0_cost = cost_of([] {
    (void)core::symmetric_threshold_winning_probability(1000, 0.456, 1000.0 / 3);
  });
  const auto exact_cost = cost_of([] {
    (void)core::symmetric_threshold_winning_probability(128, util::exact_rational(0.456),
                                                        Rational{128, 3});
  });

  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const std::pair<const char*, std::chrono::steady_clock::duration> cases[] = {
      {R"({"op":"threshold","n":128,"t":"128/3","beta":0.456,"engine":"exact","deadline_ms":20})",
       exact_cost / 2},
      {R"({"op":"threshold","n":1000,"t":"1000/3","beta":0.456,"deadline_ms":5})",
       tier0_cost * 3 / 4}};
  for (const auto& [line, limit] : cases) {
    const auto started = std::chrono::steady_clock::now();
    const std::string reply = service.handle_line(line);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_NE(reply.find("\"error\":\"deadline_exceeded\""), std::string::npos) << reply;
    EXPECT_LT(elapsed, limit) << line << ": "
                              << std::chrono::duration<double, std::milli>(elapsed).count()
                              << " ms vs a limit of "
                              << std::chrono::duration<double, std::milli>(limit).count()
                              << " ms";
  }
}

TEST(ServeDeadline, CutsTheHeterogeneousAndDeviatingEstimators) {
  // Uncut, each request runs 20 million trials on one stream — seconds of
  // worker time. Both estimators poll the request's control every 16384
  // trials, so a 50 ms budget ends them well inside a second.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  for (const char* line :
       {R"({"op":"threshold","n":12,"t":"4","beta":0.5,"engine":"mc","trials":20000000,)"
        R"("scenario":"deviating:3","deadline_ms":50})",
        R"({"op":"threshold","n":12,"t":"4","beta":0.5,"engine":"mc","trials":20000000,)"
        R"("scenario":"heterogeneous:1,1,1,1,1,1,1,1,1,1,1,2","deadline_ms":50})"}) {
    const auto started = std::chrono::steady_clock::now();
    const std::string reply = service.handle_line(line);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_NE(reply.find("\"error\":\"deadline_exceeded\""), std::string::npos) << reply;
    EXPECT_LT(elapsed, std::chrono::milliseconds(500))
        << line << ": " << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
  }
}

TEST(ServeDeadline, CutsTheSymbolicAnalysis) {
  // The n = 47 analysis takes about a second (some 470 pieces to build and
  // as many to bound); build and maximize poll the request's control once
  // per piece, so a 50 ms budget ends it well inside two seconds.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const auto started = std::chrono::steady_clock::now();
  const std::string reply =
      service.handle_line(R"({"op":"analyze","n":47,"t":"47/3","deadline_ms":50})");
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_NE(reply.find("\"error\":\"deadline_exceeded\""), std::string::npos) << reply;
  // The detail names the phase the stop struck and its pieces done / total.
  EXPECT_TRUE(reply.find("SymmetricThresholdAnalysis::build") != std::string::npos ||
              reply.find("PiecewisePolynomial::maximize") != std::string::npos)
      << reply;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
}

TEST(ServeAdmission, CapsTheSymbolicAnalysis) {
  // op 'analyze' runs the exact optimizer, about a second at n = 47 and
  // steeply more past it: it is admitted up to n = 48 and refused past it by
  // name, while threshold requests keep the general n <= 1000 cap.
  ServiceConfig config;
  config.workers = 1;
  EvalService service(config);
  const std::string refused =
      service.handle_line(R"({"id":"big","op":"analyze","n":49,"t":"49/3"})");
  EXPECT_NE(refused.find("\"error\":\"bad_request\""), std::string::npos) << refused;
  EXPECT_NE(refused.find("n <= 48"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"id\":\"big\""), std::string::npos) << refused;
  const std::string admitted = service.handle_line(R"({"op":"analyze","n":24,"t":"8"})");
  EXPECT_NE(admitted.find("\"ok\":true"), std::string::npos) << admitted;
  EXPECT_NE(admitted.find("\"certified\":true"), std::string::npos) << admitted;
  const std::string threshold =
      service.handle_line(R"({"op":"threshold","n":49,"t":"49/3","beta":0.7})");
  EXPECT_NE(threshold.find("\"ok\":true"), std::string::npos) << threshold;
}

}  // namespace
}  // namespace ddm::net
