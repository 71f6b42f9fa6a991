// Crash-window edge cases (ISSUE 6 satellite): overlapping windows on one
// invoker are rejected with line-numbered errors, touching windows are fine,
// and windows straddling the arrival horizon terminate cleanly. Also covers
// the spot: clause grammar added alongside.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"

namespace esg::fault {
namespace {

std::string error_of(const std::string& spec) {
  try {
    (void)parse_fault_spec(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(CrashWindow, OverlappingWindowsOnSameInvokerAreRejected) {
  const std::string err = error_of(
      "crash:invoker=2,at=1000,down=500\n"
      "crash:invoker=2,at=1200,down=100");
  ASSERT_FALSE(err.empty());
  // The error names both clauses by line so the bad window is findable in a
  // spec file.
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("invoker 2"), std::string::npos) << err;

  // Comment and blank lines still count, CRLF line ends included, so the
  // cited lines are the file's real ones.
  const std::string file_err = error_of(
      "# two windows\r\n\r\ncrash:invoker=1,at=0,down=100\r\n"
      "# the second one overlaps\r\ncrash:invoker=1,at=50,down=10\r\n");
  EXPECT_NE(file_err.find("fault-spec line 5"), std::string::npos) << file_err;
  EXPECT_NE(file_err.find("at line 3"), std::string::npos) << file_err;
}

TEST(CrashWindow, ContainedAndIdenticalWindowsAreRejected) {
  EXPECT_THROW(parse_fault_spec("crash:invoker=0,at=0,down=1000;"
                                "crash:invoker=0,at=200,down=100"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash:invoker=0,at=500,down=500;"
                                "crash:invoker=0,at=500,down=500"),
               std::invalid_argument);
}

TEST(CrashWindow, TouchingAndDisjointWindowsAreAllowed) {
  // [1000, 1500) then [1500, 2000): back-to-back is legal (rejoin fires
  // before the next crash by insertion order).
  const FaultSpec spec = parse_fault_spec(
      "crash:invoker=1,at=1000,down=500;crash:invoker=1,at=1500,down=500");
  EXPECT_EQ(spec.crashes.size(), 2u);
  // Same window on different invokers never conflicts.
  EXPECT_NO_THROW(parse_fault_spec(
      "crash:invoker=0,at=100,down=100;crash:invoker=1,at=100,down=100"));
}

TEST(CrashWindow, CrashAtExactlyHorizonTerminates) {
  exp::Scenario scenario;
  scenario.nodes = 4;
  scenario.horizon_ms = 2'000.0;
  scenario.seed = 7;
  scenario.fault = parse_fault_spec("crash:invoker=0,at=2000,down=500");
  const exp::RunOutput out = exp::run_scenario(scenario);  // must not hang
  EXPECT_GT(out.metrics.completions.size(), 0u);
  // The run drains past the crash and the rejoin.
  EXPECT_GE(out.simulated_end_ms, 2'000.0);
}

TEST(CrashWindow, RejoinPastEndOfWorkStillFires) {
  exp::Scenario scenario;
  scenario.nodes = 4;
  scenario.horizon_ms = 1'000.0;
  scenario.seed = 7;
  // The node is down from well before the last arrival until long after all
  // work has drained; the rejoin event alone keeps the clock moving.
  scenario.fault = parse_fault_spec("crash:invoker=3,at=500,down=60000");
  const exp::RunOutput out = exp::run_scenario(scenario);
  EXPECT_GT(out.metrics.completions.size(), 0u);
  EXPECT_GE(out.simulated_end_ms, 60'500.0);
}

// --- spot: clause grammar ------------------------------------------------

TEST(SpotClause, Parses) {
  const FaultSpec spec = parse_fault_spec("spot:at=2000,nodes=3,warn=500");
  ASSERT_EQ(spec.spot.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.spot[0].at_ms, 2'000.0);
  EXPECT_EQ(spec.spot[0].nodes, 3u);
  EXPECT_DOUBLE_EQ(spec.spot[0].warn_ms, 500.0);
  EXPECT_FALSE(spec.inert());
}

TEST(SpotClause, WarnDefaultsToZero) {
  const FaultSpec spec = parse_fault_spec("spot:at=100,nodes=1");
  ASSERT_EQ(spec.spot.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.spot[0].warn_ms, 0.0);
}

TEST(SpotClause, RejectsMalformedClauses) {
  EXPECT_THROW(parse_fault_spec("spot:nodes=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spot:at=100"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spot:at=100,nodes=0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spot:at=-1,nodes=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spot:at=100,nodes=1,warn=-5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spot:at=100,nodes=1,surprise=1"),
               std::invalid_argument);
}

TEST(SpotClause, RoundTripsThroughToString) {
  const FaultSpec spec =
      parse_fault_spec("spot:at=2000,nodes=3,warn=500;spot:at=5000,nodes=1");
  const FaultSpec again = parse_fault_spec(to_string(spec));
  ASSERT_EQ(again.spot.size(), 2u);
  EXPECT_DOUBLE_EQ(again.spot[0].at_ms, 2'000.0);
  EXPECT_EQ(again.spot[0].nodes, 3u);
  EXPECT_DOUBLE_EQ(again.spot[0].warn_ms, 500.0);
  EXPECT_EQ(again.spot[1].nodes, 1u);
  EXPECT_DOUBLE_EQ(again.spot[1].warn_ms, 0.0);
}

}  // namespace
}  // namespace esg::fault
