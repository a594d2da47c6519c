// Tests for the crash-safe sweep checkpoint (util/checkpoint.hpp): fresh
// write + reload, lossless double round-trips, torn-trailing-line discard
// (the crash-mid-append case), mid-file corruption and header-mismatch
// rejection, and append durability. Files live under the gtest temp dir.
#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics_registry.hpp"
#include "util/status.hpp"

namespace ddm::util {
namespace {

SweepParams test_params() {
  SweepParams params;
  params.n = 4;
  params.t = "4/3";
  params.beta_lo = "0";
  params.beta_hi = "1";
  params.steps = 8;
  params.engine = "auto";
  params.resolved = "batch";
  return params;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "ddm_checkpoint_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() const {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  void append_raw(const std::string& text) const {
    std::ofstream out(path_, std::ios::out | std::ios::app);
    out << text;
  }

  std::string path_;
};

TEST_F(CheckpointTest, FreshFileWritesHeaderAndRowsRoundTrip) {
  const SweepParams params = test_params();
  {
    SweepCheckpoint checkpoint(path_, params, /*resume=*/false);
    EXPECT_TRUE(checkpoint.completed().empty());
    checkpoint.append({0, 0.0, 0.5});
    // Doubles with no short decimal form must round-trip bit-exactly.
    checkpoint.append({3, 0.375, 0.5445963541666666});
    EXPECT_TRUE(checkpoint.has(3));
    EXPECT_FALSE(checkpoint.has(1));
  }
  SweepCheckpoint resumed(path_, params, /*resume=*/true);
  ASSERT_EQ(resumed.completed().size(), 2u);
  EXPECT_EQ(resumed.completed().at(0).beta, 0.0);
  EXPECT_EQ(resumed.completed().at(0).p_win, 0.5);
  EXPECT_EQ(resumed.completed().at(3).beta, 0.375);
  EXPECT_EQ(resumed.completed().at(3).p_win, 0.5445963541666666);
}

TEST_F(CheckpointTest, RowBoundIsOptionalAndRoundTrips) {
  // Auto sweeps persist each row's proven bound so a resume or merge can
  // reprint it; rows without one (forced engines, older files) keep the
  // three-field form and read back as +inf. A present but garbled bound is
  // corruption like any other unparseable field.
  const SweepParams params = test_params();
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({0, 0.0, 0.5, 1.4475925369575884e-13});
    checkpoint.append({1, 0.125, 0.25});
  }
  EXPECT_NE(read_file().find("{\"k\": 1, \"beta\": 0.125, \"p_win\": 0.25}\n"),
            std::string::npos);
  {
    SweepCheckpoint resumed(path_, params, true);
    EXPECT_EQ(resumed.completed().at(0).bound, 1.4475925369575884e-13);
    EXPECT_TRUE(std::isinf(resumed.completed().at(1).bound));
  }
  append_raw("{\"k\": 2, \"beta\": 0.25, \"p_win\": 0.3, \"bound\": x}\n");
  EXPECT_THROW(SweepCheckpoint(path_, params, true), CheckpointError);
}

TEST_F(CheckpointTest, TornTrailingLineIsDiscardedOnResume) {
  const SweepParams params = test_params();
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({0, 0.0, 0.25});
    checkpoint.append({1, 0.125, 0.375});
  }
  append_raw("{\"k\": 2, \"beta\":");  // crash mid-append: no newline, no value
  SweepCheckpoint resumed(path_, params, true);
  EXPECT_EQ(resumed.completed().size(), 2u);
  EXPECT_FALSE(resumed.has(2));
  // The recomputed row appends after the torn fragment's line; the file must
  // stay loadable afterwards with all three rows intact.
  resumed.append({2, 0.25, 0.5});
  SweepCheckpoint reloaded(path_, params, true);
  EXPECT_EQ(reloaded.completed().size(), 3u);
  EXPECT_EQ(reloaded.completed().at(2).p_win, 0.5);
}

TEST_F(CheckpointTest, CompleteRecordMissingOnlyFinalNewlineIsTornAndTruncated) {
  const SweepParams params = test_params();
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({0, 0.0, 0.25});
  }
  // Crash after a record's bytes but before its newline: the text parses as
  // a complete row, but only newline-terminated lines are durable. Keeping
  // it would leave nothing to truncate, and the next append would glue onto
  // this line — corrupting the file for the resume after that.
  append_raw("{\"k\": 1, \"beta\": 0.125, \"p_win\": 0.375}");
  {
    SweepCheckpoint resumed(path_, params, true);
    EXPECT_EQ(resumed.completed().size(), 1u);
    EXPECT_FALSE(resumed.has(1));
    resumed.append({1, 0.125, 0.375});
  }
  const std::string contents = read_file();
  EXPECT_EQ(contents.find("}{"), std::string::npos) << "rows glued onto one line:\n" << contents;
  SweepCheckpoint reloaded(path_, params, true);
  ASSERT_EQ(reloaded.completed().size(), 2u);
  EXPECT_EQ(reloaded.completed().at(1).p_win, 0.375);
}

TEST_F(CheckpointTest, UnterminatedHeaderIsAnError) {
  append_raw("{\"sweep\": {\"n\": 4, \"t\": \"4/3\", \"beta_lo\": \"0\", \"beta_hi\": \"1\", "
             "\"steps\": 8}}");  // crash before the header's newline
  EXPECT_THROW(SweepCheckpoint(path_, test_params(), /*resume=*/true), CheckpointError);
}

TEST_F(CheckpointTest, MidFileCorruptionIsAnError) {
  const SweepParams params = test_params();
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({0, 0.0, 0.25});
  }
  append_raw("garbage line\n");
  append_raw("{\"k\": 1, \"beta\": 0.125, \"p_win\": 0.375}\n");
  try {
    SweepCheckpoint resumed(path_, params, true);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

/// Resumes `path_` with `params` and returns the rejection message, failing
/// the test if the resume is accepted.
std::string expect_mismatch(const std::string& path, const SweepParams& params) {
  try {
    SweepCheckpoint resumed(path, params, /*resume=*/true);
  } catch (const CheckpointError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected CheckpointError";
  return {};
}

TEST_F(CheckpointTest, HeaderMismatchNamesTheField) {
  {
    SweepCheckpoint checkpoint(path_, test_params(), false);
    checkpoint.append({0, 0.0, 0.25});
  }
  // Every divergent field must be rejected, and the FIRST mismatching field
  // must be named with both values — "different sweep" alone does not tell
  // the operator which knob to fix.
  SweepParams other = test_params();
  other.n = 5;
  std::string what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("different sweep"), std::string::npos) << what;
  EXPECT_NE(what.find("field 'n': checkpoint 4 vs requested 5"), std::string::npos) << what;

  other = test_params();
  other.steps = 9;
  what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 'steps': checkpoint 8 vs requested 9"), std::string::npos) << what;

  other = test_params();
  other.t = "3/2";
  what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 't': checkpoint 4/3 vs requested 3/2"), std::string::npos) << what;

  other = test_params();
  other.engine = "mc";
  what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 'engine': checkpoint auto vs requested mc"), std::string::npos)
      << what;

  other = test_params();
  other.resolved = "kernel";
  what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 'resolved': checkpoint batch vs requested kernel"),
            std::string::npos)
      << what;

  other = test_params();
  other.shard_index = 1;
  other.shard_count = 3;
  what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 'shard': checkpoint 0/1 vs requested 1/3"), std::string::npos)
      << what;
}

TEST_F(CheckpointTest, ToleranceIsPartOfTheRunIdentity) {
  // The tolerance decides which rung of the certified ladder answers a row,
  // so rows computed at 1/1000 must not be resumed by a run asking 1e-30.
  SweepParams coarse = test_params();
  coarse.engine = "certified";
  coarse.resolved = "certified";
  coarse.tolerance = "1/1000";
  {
    SweepCheckpoint checkpoint(path_, coarse, false);
    checkpoint.append({0, 0.0, 0.25, 4.2e-8});
  }
  EXPECT_NE(read_file().find("\"tolerance\": \"1/1000\""), std::string::npos) << read_file();
  SweepParams fine = coarse;
  fine.tolerance = "1/1000000000000000000000000000000";
  const std::string what = expect_mismatch(path_, fine);
  EXPECT_NE(what.find("field 'tolerance': checkpoint 1/1000 vs requested "
                      "1/1000000000000000000000000000000"),
            std::string::npos)
      << what;
  EXPECT_EQ(read_checkpoint(path_).params.tolerance, "1/1000");
}

TEST_F(CheckpointTest, HeaderWithoutToleranceParsesAsTheDefault) {
  // Every sweep before the field existed ran at the request default, 1e-9,
  // so such a header resumes under it and under nothing else.
  append_raw("{\"sweep\": {\"n\": 4, \"t\": \"4/3\", \"beta_lo\": \"0\", \"beta_hi\": \"1\", "
             "\"steps\": 8, \"engine\": \"auto\", \"resolved\": \"batch\", \"shard\": \"0/1\", "
             "\"scenario\": \"homogeneous\"}}\n");
  append_raw("{\"k\": 0, \"beta\": 0, \"p_win\": 0.25}\n");
  EXPECT_EQ(read_checkpoint(path_).params.tolerance, "1/1000000000");
  {
    SweepCheckpoint resumed(path_, test_params(), true);
    EXPECT_EQ(resumed.completed().size(), 1u);
  }
  SweepParams other = test_params();
  other.tolerance = "1/1000";
  const std::string what = expect_mismatch(path_, other);
  EXPECT_NE(what.find("field 'tolerance': checkpoint 1/1000000000 vs requested 1/1000"),
            std::string::npos)
      << what;
}

TEST_F(CheckpointTest, PreEngineHeaderIsRejectedNamingTheAbsentField) {
  // A header written before the engine/resolved/shard fields existed parses
  // (lenient reader), but rows from an unknown engine must never be glued
  // onto a typed sweep: the resume names the absent field.
  append_raw("{\"sweep\": {\"n\": 4, \"t\": \"4/3\", \"beta_lo\": \"0\", \"beta_hi\": \"1\", "
             "\"steps\": 8}}\n");
  append_raw("{\"k\": 0, \"beta\": 0, \"p_win\": 0.25}\n");
  const std::string what = expect_mismatch(path_, test_params());
  EXPECT_NE(what.find("field 'engine': checkpoint <absent> vs requested auto"),
            std::string::npos)
      << what;
}

TEST_F(CheckpointTest, ShardedHeaderRoundTripsAndOwnsItsRows) {
  SweepParams params = test_params();
  params.shard_index = 1;
  params.shard_count = 3;
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({1, 0.125, 0.375});
    checkpoint.append({4, 0.5, 0.625});
    checkpoint.append({7, 0.875, 0.5});
  }
  const std::string contents = read_file();
  EXPECT_NE(contents.find("\"shard\": \"1/3\""), std::string::npos) << contents;
  SweepCheckpoint resumed(path_, params, true);
  EXPECT_EQ(resumed.completed().size(), 3u);
}

TEST_F(CheckpointTest, RowOutsideTheShardIsAnError) {
  SweepParams params = test_params();
  params.shard_index = 1;
  params.shard_count = 3;
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({1, 0.125, 0.375});
  }
  // k = 2 belongs to shard 2/3; its presence in a 1/3 file means two sweeps'
  // outputs were mixed — corruption, not a resumable state.
  append_raw("{\"k\": 2, \"beta\": 0.25, \"p_win\": 0.5}\n");
  append_raw("{\"k\": 4, \"beta\": 0.5, \"p_win\": 0.625}\n");
  try {
    SweepCheckpoint resumed(path_, params, true);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("outside shard"), std::string::npos)
        << error.what();
  }
}

TEST_F(CheckpointTest, ReadCheckpointLoadsWithoutWriting) {
  SweepParams params = test_params();
  params.shard_index = 2;
  params.shard_count = 3;
  {
    SweepCheckpoint checkpoint(path_, params, false);
    checkpoint.append({2, 0.25, 0.5});
    checkpoint.append({5, 0.625, 0.5445963541666666});
  }
  append_raw("{\"k\": 8, \"beta\":");  // torn tail
  const auto before = std::ifstream(path_, std::ios::ate | std::ios::binary).tellg();
  const LoadedCheckpoint loaded = read_checkpoint(path_);
  EXPECT_EQ(loaded.params, params);
  ASSERT_EQ(loaded.rows.size(), 2u);
  EXPECT_EQ(loaded.rows.at(5).p_win, 0.5445963541666666);
  EXPECT_TRUE(loaded.torn_tail);
  // Read-only: the torn fragment is reported, not truncated away.
  const auto after = std::ifstream(path_, std::ios::ate | std::ios::binary).tellg();
  EXPECT_EQ(before, after);
  EXPECT_THROW((void)read_checkpoint(path_ + ".missing"), CheckpointError);
}

TEST_F(CheckpointTest, ResumeRequiresAnExistingFileWithHeader) {
  EXPECT_THROW(SweepCheckpoint(path_, test_params(), /*resume=*/true), CheckpointError);
  append_raw("");  // create an empty file
  { std::ofstream out(path_); }
  EXPECT_THROW(SweepCheckpoint(path_, test_params(), true), CheckpointError);
}

TEST_F(CheckpointTest, RowIndexBeyondStepsIsAnError) {
  {
    SweepCheckpoint checkpoint(path_, test_params(), false);
    checkpoint.append({0, 0.0, 0.25});
  }
  append_raw("{\"k\": 99, \"beta\": 0.5, \"p_win\": 0.5}\n");
  append_raw("{\"k\": 1, \"beta\": 0.125, \"p_win\": 0.375}\n");  // keeps 99 off the last line
  EXPECT_THROW(SweepCheckpoint(path_, test_params(), true), CheckpointError);
}

TEST_F(CheckpointTest, StepsPastTheSweepCapIsAnError) {
  // steps + 1 wraps to 0 at 2^32 - 1; a header that large must be refused
  // before anyone sizes a grid from it.
  SweepParams params = test_params();
  params.steps = kMaxSweepSteps;
  { SweepCheckpoint checkpoint(path_, params, false); }
  EXPECT_EQ(read_checkpoint(path_).params.steps, kMaxSweepSteps);
  for (const std::uint32_t steps : {kMaxSweepSteps + 1, std::uint32_t{4294967295u}}) {
    params.steps = steps;
    { SweepCheckpoint checkpoint(path_, params, false); }
    try {
      (void)read_checkpoint(path_);
      ADD_FAILURE() << "steps " << steps << " was accepted";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("past the sweep cap"), std::string::npos)
          << error.what();
    }
    EXPECT_THROW(SweepCheckpoint(path_, params, /*resume=*/true), CheckpointError);
  }
}

TEST_F(CheckpointTest, AppendFlushesEachRowDurably) {
  const SweepParams params = test_params();
  SweepCheckpoint checkpoint(path_, params, false);
  checkpoint.append({0, 0.0, 0.25});
  // Without closing the writer, the row must already be on disk (flushed),
  // which is what bounds crash loss to the single in-flight row.
  const std::string contents = read_file();
  EXPECT_NE(contents.find("{\"k\": 0, \"beta\": 0, \"p_win\": 0.25}\n"), std::string::npos);
}

#if defined(__unix__) || defined(__APPLE__)
// Regression: append used to stop at std::flush, which only hands the bytes
// to the OS page cache — a HOST crash (power loss), as opposed to a killed
// process, could drop rows the sweep driver had already counted as durable,
// and the resume would silently skip recomputing them. Every append (and the
// header write) must now reach fsync; the checkpoint.fsyncs counter is the
// observable witness.
TEST_F(CheckpointTest, EveryAppendReachesFsync) {
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  {
    SweepCheckpoint checkpoint(path_, test_params(), false);
    checkpoint.append({0, 0.0, 0.25});
    checkpoint.append({1, 0.125, 0.375});
  }
  std::uint64_t fsyncs = 0;
  for (const auto& sample : obs::Registry::instance().scrape()) {
    if (sample.name == "checkpoint.fsyncs") fsyncs = sample.counter_value;
  }
  obs::set_metrics_enabled(false);
  // One for the header, one per row.
  EXPECT_EQ(fsyncs, 3u);
}
#endif

}  // namespace
}  // namespace ddm::util
