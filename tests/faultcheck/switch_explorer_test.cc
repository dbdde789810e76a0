// Switch-overlapping schedule sweeps (§4.7, §5.2): crashes landing before, at, and after a
// protocol switch begins — including mid-switch executions running the transitional
// protocol — must all pass the consistency oracle, in both switch directions.

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

ExplorerOptions SwitchingOptions(ProtocolKind from, ProtocolKind to) {
  ExplorerOptions options = MatrixOptions();
  options.protocol = from;
  options.enable_switching = true;
  options.crash_plus_switch = true;
  options.switch_target = to;
  return options;
}

void ExpectSwitchSweepPasses(const Workload& workload, ExplorerOptions options) {
  Explorer explorer(workload, options);
  ExplorerReport report = explorer.Run();
  faultcheck::PrintReport(workload.name + "/" + core::ProtocolName(options.protocol) + "->" +
                              core::ProtocolName(options.switch_target),
                          report);
  EXPECT_GT(report.baseline_sites, 0);
  EXPECT_GT(report.explored_switch, 0);
  if (!report.AllPassed()) {
    FAIL() << report.failures.size() << " failing schedules, first: "
           << report.failures[0].schedule.ToString() << " -> " << report.failures[0].reason;
  }
}

TEST(SwitchExplorerTest, CounterSurvivesWriteToReadSwitchSchedules) {
  ExpectSwitchSweepPasses(
      faultcheck::CounterWorkload(),
      Bounded(SwitchingOptions(ProtocolKind::kHalfmoonWrite, ProtocolKind::kHalfmoonRead), 3, 5,
              3));
}

TEST(SwitchExplorerTest, CounterSurvivesReadToWriteSwitchSchedules) {
  ExpectSwitchSweepPasses(
      faultcheck::CounterWorkload(),
      Bounded(SwitchingOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite), 3, 5,
              3));
}

TEST(SwitchExplorerTest, TransferSurvivesWriteToReadSwitchSchedules) {
  ExpectSwitchSweepPasses(
      faultcheck::TransferWorkload(),
      Bounded(SwitchingOptions(ProtocolKind::kHalfmoonWrite, ProtocolKind::kHalfmoonRead), 4, 6,
              2));
}

TEST(SwitchExplorerTest, CounterSurvivesWriteToReadSwitchSchedulesWithTwoShards) {
  // Protocol switches over a tag-partitioned log: the transition record and the in-window
  // invocations land on different shards, so the switch fence must hold under the
  // cross-shard merge order too.
  ExplorerOptions options =
      SwitchingOptions(ProtocolKind::kHalfmoonWrite, ProtocolKind::kHalfmoonRead);
  options.cluster.log_shards = 2;
  ExpectSwitchSweepPasses(faultcheck::CounterWorkload(), Bounded(options, 3, 5, 3));
}

TEST(SwitchExplorerTest, CounterSurvivesReadToWriteSwitchSchedulesWithTwoShards) {
  ExplorerOptions options =
      SwitchingOptions(ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite);
  options.cluster.log_shards = 2;
  ExpectSwitchSweepPasses(faultcheck::CounterWorkload(), Bounded(options, 3, 5, 3));
}

TEST(SwitchExplorerTest, MidSwitchCrashScheduleReplaysDeterministically) {
  // A switch starting at the very first hit puts the invocations inside the switch window
  // (transitional protocol); a crash in that window must recover, and the printed schedule
  // must replay to the identical execution.
  Explorer explorer(faultcheck::CounterWorkload(),
                    SwitchingOptions(ProtocolKind::kHalfmoonWrite, ProtocolKind::kHalfmoonRead));

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_GT(baseline.trace.size(), 3u);

  Schedule schedule;
  schedule.points.push_back(FaultPoint::SwitchBegin(ProtocolKind::kHalfmoonRead, 0));
  schedule.points.push_back(
      FaultPoint::Crash(baseline.trace[3].site, baseline.trace[3].occurrence));

  auto reparsed = Schedule::Parse(schedule.ToString());
  ASSERT_TRUE(reparsed.has_value()) << schedule.ToString();
  ASSERT_EQ(*reparsed, schedule);

  Explorer::RunOutcome first = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome second = explorer.RunSchedule(*reparsed, /*record_trace=*/true);
  EXPECT_TRUE(first.verdict.ok) << first.verdict.failure;
  EXPECT_EQ(first.verdict.ok, second.verdict.ok);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_GE(first.crashes, 1);
}

}  // namespace
}  // namespace halfmoon
