// Advisor-mode schedule sweeps (DESIGN.md §11): crashes overlapping per-object protocol
// switches fired by the online advisor. The depth-2 crash_plus_advisor family pairs every
// first crash with an advisor firing (switching every workload key) at positions across the
// faulted run — including firings whose SwitchObject dies mid-transition, leaving objects
// transitional until a later sweep. Every explored schedule must pass the consistency
// oracle, in both switch directions and over a sharded log.

#include <string>

#include <gtest/gtest.h>

#include "src/faultcheck/explorer.h"
#include "src/faultcheck/schedule.h"
#include "src/faultcheck/workload.h"
#include "tests/faultcheck/sweep_mode.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using faultcheck::Bounded;
using faultcheck::Explorer;
using faultcheck::ExplorerOptions;
using faultcheck::ExplorerReport;
using faultcheck::FaultPoint;
using faultcheck::MatrixOptions;
using faultcheck::Schedule;
using faultcheck::Workload;

ExplorerOptions AdvisorOptions(ProtocolKind from, ProtocolKind to) {
  ExplorerOptions options = MatrixOptions();
  options.protocol = from;
  options.advisor_mode = true;
  options.crash_plus_advisor = true;
  options.switch_target = to;
  return options;
}

void ExpectAdvisorSweepPasses(const Workload& workload, ExplorerOptions options) {
  Explorer explorer(workload, options);
  ExplorerReport report = explorer.Run();
  faultcheck::PrintReport(workload.name + "/advisor/" +
                              core::ProtocolName(options.protocol) + "->" +
                              core::ProtocolName(options.switch_target),
                          report);
  EXPECT_GT(report.baseline_sites, 0);
  EXPECT_GT(report.explored_advisor, 0);
  if (!report.AllPassed()) {
    FAIL() << report.failures.size() << " failing schedules, first: "
           << report.failures[0].schedule.ToString() << " -> " << report.failures[0].reason;
  }
}

// The HM_FAULTCHECK_FULL=1 sweep runs this counter family exhaustively (no strides, no
// second-position cap) — the ISSUE's "at least one workload swept exhaustively" gate.
TEST(AdvisorExplorerTest, CounterSurvivesCrashDuringAdvisorReadToWriteSwitch) {
  ExpectAdvisorSweepPasses(
      faultcheck::CounterWorkload(),
      Bounded(AdvisorOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite), 3, 5,
              3));
}

TEST(AdvisorExplorerTest, CounterSurvivesCrashDuringAdvisorWriteToReadSwitch) {
  ExpectAdvisorSweepPasses(
      faultcheck::CounterWorkload(),
      Bounded(AdvisorOptions(ProtocolKind::kHalfmoonWrite, ProtocolKind::kHalfmoonRead), 3, 5,
              3));
}

TEST(AdvisorExplorerTest, TransferSurvivesCrashDuringAdvisorSwitchSchedules) {
  // Multi-object workload: the advisor firing switches BOTH accounts, so a crash can land
  // with one object switched and the other still mid-transition.
  ExpectAdvisorSweepPasses(
      faultcheck::TransferWorkload(),
      Bounded(AdvisorOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite), 4, 6,
              2));
}

TEST(AdvisorExplorerTest, CounterSurvivesAdvisorSwitchSchedulesWithTwoShards) {
  // Per-object transition streams over a tag-partitioned log: an object's "switch:k:<key>"
  // records and its write-log records can land on different shards.
  ExplorerOptions options =
      AdvisorOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite);
  options.cluster.log_shards = 2;
  ExpectAdvisorSweepPasses(faultcheck::CounterWorkload(), Bounded(options, 3, 5, 3));
}

TEST(AdvisorExplorerTest, MidSwitchAdvisorCrashScheduleReplaysDeterministically) {
  // A hand-built schedule crashing the advisor daemon between BEGIN and END must parse back
  // from its printed form and replay to the identical execution — the property that makes
  // sweep failures debuggable.
  Explorer explorer(faultcheck::CounterWorkload(),
                    AdvisorOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite));

  Schedule schedule;
  schedule.points.push_back(FaultPoint::AdvisorFire(ProtocolKind::kHalfmoonWrite, 0));
  schedule.points.push_back(FaultPoint::Crash("advisor.mid_switch", 0));

  auto reparsed = Schedule::Parse(schedule.ToString());
  ASSERT_TRUE(reparsed.has_value()) << schedule.ToString();
  ASSERT_EQ(*reparsed, schedule);

  Explorer::RunOutcome first = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome second = explorer.RunSchedule(*reparsed, /*record_trace=*/true);
  EXPECT_TRUE(first.verdict.ok) << first.verdict.failure;
  EXPECT_EQ(first.verdict.ok, second.verdict.ok);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.crashes, second.crashes);
}

}  // namespace
}  // namespace halfmoon
