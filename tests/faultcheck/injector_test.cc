// FailureInjector named-site registry tests, plus the crash-site audit: every site a workload
// execution passes through must be registered in faultcheck/sites.h (the reproducibility
// contract for printed schedules).

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/faultcheck/explorer.h"
#include "src/faultcheck/sites.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/failure_injector.h"
#include "tests/faultcheck/sweep_mode.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using faultcheck::Explorer;
using faultcheck::ExplorerOptions;
using faultcheck::MatrixOptions;
using faultcheck::Schedule;
using runtime::FailureInjector;

TEST(FailureInjectorTest, NamedSiteCrashFiresAtExactOccurrence) {
  FailureInjector injector;
  Rng rng(1);
  injector.CrashAtSite("a.site", 2);
  // Occurrences of "a.site": 0, 1, 2 — only the third fires, other sites never do.
  EXPECT_FALSE(injector.ShouldCrash(rng, "a.site"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "b.site"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "a.site"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "b.site"));
  EXPECT_TRUE(injector.ShouldCrash(rng, "a.site"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "a.site"));
}

TEST(FailureInjectorTest, SiteOccurrencesAreStableAcrossOtherSites) {
  // The same (site, occurrence) pair fires at the same logical point no matter how many
  // *other* sites interleave — the property that makes printed schedules survive code motion.
  for (int noise = 0; noise < 3; ++noise) {
    FailureInjector injector;
    Rng rng(1);
    injector.CrashAtSite("target", 1);
    bool crashed = false;
    for (int round = 0; round < 3 && !crashed; ++round) {
      for (int n = 0; n < noise; ++n) {
        EXPECT_FALSE(injector.ShouldCrash(rng, "noise." + std::to_string(n)));
      }
      crashed = injector.ShouldCrash(rng, "target");
      if (crashed) {
        EXPECT_EQ(round, 1) << "noise=" << noise;
      }
    }
    EXPECT_TRUE(crashed) << "noise=" << noise;
  }
}

TEST(FailureInjectorTest, PerSiteCountsTrackWhileSchedulingOrTracing) {
  FailureInjector injector;
  Rng rng(1);
  injector.EnableTrace(true);
  injector.ShouldCrash(rng, "x");
  injector.ShouldCrash(rng, "y");
  injector.ShouldCrash(rng, "x");
  EXPECT_EQ(injector.SiteHitCount("x"), 2);
  EXPECT_EQ(injector.SiteHitCount("y"), 1);
  EXPECT_EQ(injector.SiteHitCount("z"), 0);
  EXPECT_EQ(injector.site_hits(), 3);

  ASSERT_EQ(injector.trace().size(), 3u);
  EXPECT_EQ(injector.trace()[0], (FailureInjector::TraceEntry{"x", 0}));
  EXPECT_EQ(injector.trace()[1], (FailureInjector::TraceEntry{"y", 0}));
  EXPECT_EQ(injector.trace()[2], (FailureInjector::TraceEntry{"x", 1}));

  injector.ResetHitCounter();
  EXPECT_EQ(injector.site_hits(), 0);
  EXPECT_EQ(injector.SiteHitCount("x"), 0);
  EXPECT_TRUE(injector.trace().empty());
}

TEST(FailureInjectorTest, GlobalIndexModeStillWorks) {
  FailureInjector injector;
  Rng rng(1);
  injector.CrashAtSiteHits({1});
  EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
  EXPECT_TRUE(injector.ShouldCrash(rng, "s"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
}

TEST(FailureInjectorTest, HitActionsRunOnceAtTheirHit) {
  FailureInjector injector;
  Rng rng(1);
  int fired_at = -1;
  injector.RunAtHit(2, [&] { fired_at = static_cast<int>(injector.site_hits()); });
  for (int i = 0; i < 5; ++i) injector.ShouldCrash(rng, "s");
  // The action runs inside the hit-2 call, after the counter advanced past it.
  EXPECT_EQ(fired_at, 3);
}

TEST(FailureInjectorTest, ScheduledPeerFiresOnceAfterHit) {
  FailureInjector injector;
  Rng rng(1);
  injector.SpawnPeerAfterHit(1);
  EXPECT_FALSE(injector.ShouldDuplicate(rng));  // Counter still at 0.
  injector.ShouldCrash(rng, "s");
  injector.ShouldCrash(rng, "s");
  EXPECT_TRUE(injector.ShouldDuplicate(rng));   // Counter (2) passed the armed hit.
  EXPECT_FALSE(injector.ShouldDuplicate(rng));  // Exactly once.

  injector.SpawnPeerAfterHit(-1);
  EXPECT_TRUE(injector.ShouldDuplicate(rng));  // -1 = next opportunity.
  EXPECT_FALSE(injector.ShouldDuplicate(rng));
}

TEST(FailureInjectorTest, ClearCrashScheduleDropsBothModes) {
  FailureInjector injector;
  Rng rng(1);
  injector.CrashAtSiteHits({0});
  injector.CrashAtSite("s", 0);
  injector.ClearCrashSchedule();
  EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
}

// ---- Crash-site audit ----

TEST(CrashSiteAuditTest, EveryTracedSiteIsRegistered) {
  // Trace every workload under every protocol (switching on and off) and check each reached
  // site against the registry. Catches renamed call sites and forgotten registrations.
  std::set<std::string> seen;
  for (const faultcheck::Workload& workload : faultcheck::AllWorkloads()) {
    for (ProtocolKind protocol :
         {ProtocolKind::kUnsafe, ProtocolKind::kBoki, ProtocolKind::kHalfmoonRead,
          ProtocolKind::kHalfmoonWrite, ProtocolKind::kTransitional}) {
      for (bool switching : {false, true}) {
        ExplorerOptions options = MatrixOptions();
        options.protocol = protocol;
        options.enable_switching = switching;
        Explorer explorer(workload, options);
        Explorer::RunOutcome outcome = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
        for (const runtime::FailureInjector::TraceEntry& entry : outcome.trace) {
          EXPECT_TRUE(faultcheck::IsKnownCrashSite(entry.site))
              << "unregistered crash site \"" << entry.site << "\" (workload "
              << workload.name << ", " << core::ProtocolName(protocol) << ")";
          seen.insert(entry.site);
        }
      }
    }
  }
  // Sanity: the sweep actually exercises a healthy fraction of the registry.
  EXPECT_GE(seen.size(), 20u);
}

}  // namespace
}  // namespace halfmoon
