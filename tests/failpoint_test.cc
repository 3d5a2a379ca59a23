#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace csc {
namespace {

// Every test disarms on exit: the whole suite shares one process, and a
// leaked armed action would fire in an unrelated test.
class FailpointTest : public testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().ClearAll(); }
};

TEST_F(FailpointTest, InactiveSiteIsFalseAndRegisters) {
  EXPECT_FALSE(CSC_FAILPOINT("test.inactive"));
  EXPECT_TRUE(Failpoints::Instance().IsRegistered("test.inactive"));
  EXPECT_FALSE(Failpoints::Instance().IsRegistered("test.never_evaluated"));
}

TEST_F(FailpointTest, ErrorModeFiresOnceThenDisarms) {
  FailpointAction action;
  action.mode = FailpointMode::kError;
  Failpoints::Instance().Set("test.error", action);
  EXPECT_TRUE(CSC_FAILPOINT("test.error"));
  // A fired action disarms its site: re-runs are deterministic.
  EXPECT_FALSE(CSC_FAILPOINT("test.error"));
}

TEST_F(FailpointTest, ThrowModeThrowsOnceThenDisarms) {
  ASSERT_TRUE(Failpoints::Instance().ParseSpec("test.throw=throw"));
  EXPECT_THROW((void)CSC_FAILPOINT("test.throw"), std::runtime_error);
  EXPECT_FALSE(CSC_FAILPOINT("test.throw"));
}

TEST_F(FailpointTest, CountdownPassesKMinusOneEvaluations) {
  FailpointAction action;
  action.mode = FailpointMode::kError;
  action.countdown = 3;
  Failpoints::Instance().Set("test.countdown", action);
  EXPECT_FALSE(CSC_FAILPOINT("test.countdown"));
  EXPECT_FALSE(CSC_FAILPOINT("test.countdown"));
  EXPECT_TRUE(CSC_FAILPOINT("test.countdown"));
  EXPECT_FALSE(CSC_FAILPOINT("test.countdown"));
}

TEST_F(FailpointTest, ArmBeforeFirstEvaluationApplies) {
  // The action is held for a site that has not yet constructed; the first
  // evaluation both registers the site and fires it.
  FailpointAction action;
  action.mode = FailpointMode::kError;
  Failpoints::Instance().Set("test.pre_armed", action);
  EXPECT_TRUE(CSC_FAILPOINT("test.pre_armed"));
}

TEST_F(FailpointTest, ClearDisarms) {
  FailpointAction action;
  action.mode = FailpointMode::kError;
  Failpoints::Instance().Set("test.cleared", action);
  Failpoints::Instance().Clear("test.cleared");
  EXPECT_FALSE(CSC_FAILPOINT("test.cleared"));
}

TEST_F(FailpointTest, ShortWriteReportsKeepBytes) {
  FailpointAction action;
  action.mode = FailpointMode::kShortWrite;
  action.keep_bytes = 7;
  Failpoints::Instance().Set("test.short", action);
  uint64_t keep = 0;
  EXPECT_TRUE(CSC_FAILPOINT_SHORT_WRITE("test.short", &keep));
  EXPECT_EQ(keep, 7u);
  // Disarmed: the keep budget resets to "unlimited".
  EXPECT_FALSE(CSC_FAILPOINT_SHORT_WRITE("test.short", &keep));
  EXPECT_EQ(keep, UINT64_MAX);
}

TEST_F(FailpointTest, DelayModeSleepsAndProceeds) {
  FailpointAction action;
  action.mode = FailpointMode::kDelay;
  action.delay_ms = 30;
  Failpoints::Instance().Set("test.delay", action);
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(CSC_FAILPOINT("test.delay"));  // sleeps, then proceeds
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

TEST_F(FailpointTest, ParseSpecArmsMultipleSites) {
  std::string error;
  ASSERT_TRUE(Failpoints::Instance().ParseSpec(
      "test.spec_a=error,test.spec_b=error:countdown:2", &error))
      << error;
  EXPECT_TRUE(CSC_FAILPOINT("test.spec_a"));
  EXPECT_FALSE(CSC_FAILPOINT("test.spec_b"));
  EXPECT_TRUE(CSC_FAILPOINT("test.spec_b"));
}

TEST_F(FailpointTest, ParseSpecShortWriteKeep) {
  ASSERT_TRUE(Failpoints::Instance().ParseSpec(
      "test.spec_keep=short-write:keep:3"));
  uint64_t keep = 0;
  EXPECT_TRUE(CSC_FAILPOINT_SHORT_WRITE("test.spec_keep", &keep));
  EXPECT_EQ(keep, 3u);
}

TEST_F(FailpointTest, ParseSpecOffClears) {
  FailpointAction action;
  action.mode = FailpointMode::kError;
  Failpoints::Instance().Set("test.spec_off", action);
  ASSERT_TRUE(Failpoints::Instance().ParseSpec("test.spec_off=off"));
  EXPECT_FALSE(CSC_FAILPOINT("test.spec_off"));
}

TEST_F(FailpointTest, ParseSpecRejectsMalformed) {
  std::string error;
  EXPECT_FALSE(Failpoints::Instance().ParseSpec("no_equals_sign", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Failpoints::Instance().ParseSpec("a=no-such-mode", &error));
  EXPECT_FALSE(
      Failpoints::Instance().ParseSpec("a=error:countdown:NaN", &error));
}

TEST_F(FailpointTest, RegisteredNamesAreSorted) {
  EXPECT_FALSE(CSC_FAILPOINT("test.zz_name"));
  EXPECT_FALSE(CSC_FAILPOINT("test.aa_name"));
  std::vector<std::string> names = Failpoints::Instance().RegisteredNames();
  ASSERT_GE(names.size(), 2u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace csc
