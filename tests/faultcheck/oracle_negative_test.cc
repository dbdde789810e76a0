// Negative controls: the oracle is only trustworthy if it *fails* on protocols that are
// actually broken. The unsafe baseline (no logging — re-execution duplicates effects) and the
// drop-commit-append mutation (writes never become visible on the write log — lost updates)
// must each produce failing schedules under the depth-2 sweep.

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
using faultcheck::FailingSchedule;
using faultcheck::MatrixOptions;
using faultcheck::Schedule;

TEST(OracleNegativeTest, UnsafeBaselineFailsTheSweep) {
  ExplorerOptions options = MatrixOptions();
  options.protocol = ProtocolKind::kUnsafe;
  Explorer explorer(faultcheck::CounterWorkload(), Bounded(options));
  ExplorerReport report = explorer.Run();
  faultcheck::PrintReport("negative/unsafe", report);

  ASSERT_FALSE(report.AllPassed()) << "unsafe protocol passed the oracle — the oracle is blind";
  // The fault-free unsafe run is correct; only faulted schedules may fail.
  for (const FailingSchedule& failure : report.failures) {
    EXPECT_FALSE(failure.schedule.empty()) << failure.reason;
    EXPECT_FALSE(failure.minimized.empty());
  }

  // The minimized schedule round-trips through its printed form and still fails — the
  // reproducibility contract for bug reports.
  const FailingSchedule& first = report.failures.front();
  auto reparsed = Schedule::Parse(first.minimized.ToString());
  ASSERT_TRUE(reparsed.has_value()) << first.minimized.ToString();
  EXPECT_EQ(*reparsed, first.minimized);
  Explorer::RunOutcome replay = explorer.RunSchedule(*reparsed);
  EXPECT_FALSE(replay.verdict.ok)
      << "minimized schedule " << first.minimized.ToString() << " no longer fails on replay";
}

TEST(OracleNegativeTest, DropCommitAppendFailsEvenWithoutFaults) {
  // Suppressing the commit append makes Halfmoon-read writes invisible to the log-free read
  // path: later invocations read stale state. The oracle must catch this at depth 0.
  ExplorerOptions options = MatrixOptions();
  options.protocol = ProtocolKind::kHalfmoonRead;
  options.drop_commit_append = true;
  Explorer explorer(faultcheck::CounterWorkload(), options);
  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{});
  EXPECT_FALSE(baseline.verdict.ok);
  EXPECT_FALSE(baseline.verdict.failure.empty());
}

TEST(OracleNegativeTest, DropCommitAppendFailsTheSweep) {
  ExplorerOptions options = MatrixOptions();
  options.protocol = ProtocolKind::kHalfmoonRead;
  options.drop_commit_append = true;
  // Every schedule fails here; skip shrinking (it re-runs per failure) and bound tightly.
  options.shrink_failures = false;
  Explorer explorer(faultcheck::CounterWorkload(), Bounded(options, 4, 6, 2));
  ExplorerReport report = explorer.Run();
  faultcheck::PrintReport("negative/drop-commit-append", report);

  ASSERT_FALSE(report.AllPassed());
  // The baseline itself is among the failures: no fault points needed to expose it.
  EXPECT_TRUE(report.failures.front().schedule.empty());
}

}  // namespace
}  // namespace halfmoon
