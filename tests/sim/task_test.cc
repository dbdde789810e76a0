#include "src/sim/task.h"

#include <array>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/time.h"
#include "src/sim/scheduler.h"

namespace halfmoon::sim {
namespace {

Task<int> ReturnInt(int v) { co_return v; }

Task<std::string> ReturnString(std::string s) { co_return s; }

Task<int> AddViaNested(int a, int b) {
  int x = co_await ReturnInt(a);
  int y = co_await ReturnInt(b);
  co_return x + y;
}

Task<void> SideEffect(int* out, int v) {
  *out = v;
  co_return;
}

Task<int> Throwing() {
  throw std::runtime_error("boom");
  co_return 0;  // Unreachable.
}

Task<int> CatchesNested() {
  try {
    co_await Throwing();
  } catch (const std::runtime_error& e) {
    co_return 42;
  }
  co_return -1;
}

TEST(TaskTest, LazyTaskDoesNotRunUntilAwaited) {
  int value = 0;
  {
    Task<void> t = SideEffect(&value, 5);
    EXPECT_EQ(value, 0);  // Not started.
  }
  EXPECT_EQ(value, 0);  // Destroyed without running.
}

TEST(TaskTest, SpawnRunsTaskThroughScheduler) {
  Scheduler sched;
  int value = 0;
  sched.Spawn(SideEffect(&value, 7));
  EXPECT_EQ(value, 0);  // Not yet: spawn posts to the queue.
  sched.Run();
  EXPECT_EQ(value, 7);
}

TEST(TaskTest, NestedAwaitPropagatesValues) {
  Scheduler sched;
  int result = 0;
  sched.Spawn([](int* out) -> Task<void> {
    *out = co_await AddViaNested(20, 22);
  }(&result));
  sched.Run();
  EXPECT_EQ(result, 42);
}

TEST(TaskTest, StringResultsMoveThrough) {
  Scheduler sched;
  std::string result;
  sched.Spawn([](std::string* out) -> Task<void> {
    *out = co_await ReturnString("halfmoon");
  }(&result));
  sched.Run();
  EXPECT_EQ(result, "halfmoon");
}

TEST(TaskTest, ExceptionsPropagateThroughAwait) {
  Scheduler sched;
  int result = 0;
  sched.Spawn([](int* out) -> Task<void> {
    *out = co_await CatchesNested();
  }(&result));
  sched.Run();
  EXPECT_EQ(result, 42);
}

TEST(TaskTest, MoveConstructionTransfersOwnership) {
  Task<int> a = ReturnInt(1);
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): explicitly testing moved-from.
  EXPECT_TRUE(b.valid());
}

TEST(TaskTest, DeepAwaitChainDoesNotOverflowStack) {
  // 100k sequential awaits through symmetric transfer; would blow the stack if each nested
  // resume consumed a frame. ASan's stack instrumentation suppresses the tail calls
  // symmetric transfer lowers to, so resume genuinely recurses under it — run the chain
  // shorter there (the sanitizer still checks the await machinery, just not stack growth).
#if defined(__SANITIZE_ADDRESS__)
  constexpr int kChain = 5000;
#else
  constexpr int kChain = 100000;
#endif
  Scheduler sched;
  int64_t total = 0;
  sched.Spawn([](int64_t* out) -> Task<void> {
    int64_t acc = 0;
    for (int i = 0; i < kChain; ++i) {
      acc += co_await ReturnInt(1);
    }
    *out = acc;
  }(&total));
  sched.Run();
  EXPECT_EQ(total, kChain);
}

// ---- Frame recycling (task.h) ----

using FrameCounts = std::array<size_t, internal::kFrameClasses>;

FrameCounts FreeFrames() {
  FrameCounts counts{};
  for (size_t cls = 0; cls < counts.size(); ++cls) counts[cls] = internal::FreeFrameCount(cls);
  return counts;
}

size_t TotalFreeFrames() {
  size_t total = 0;
  for (size_t n : FreeFrames()) total += n;
  return total;
}

// The size class a freshly created (never started) frame returns to when destroyed, or
// kFrameClasses if destroying it grew no free list (fallback path, or recycling disabled).
template <typename MakeTask>
size_t ClassOfFrame(MakeTask make) {
  auto task = make();
  FrameCounts before = FreeFrames();
  task = decltype(task)();  // Destroys the frame.
  FrameCounts after = FreeFrames();
  for (size_t cls = 0; cls < after.size(); ++cls) {
    if (after[cls] == before[cls] + 1) return cls;
  }
  return internal::kFrameClasses;
}

Task<int> SmallFrame(Scheduler* sched, int v) {
  co_await sched->Delay(Milliseconds(1));
  co_return v;
}

Task<int> LargeFrame(Scheduler* sched, int v) {
  // Live across the await, so the array is part of the frame (a larger size class).
  std::array<int64_t, 48> scratch{};
  scratch[static_cast<size_t>(v) % scratch.size()] = v;
  int got = co_await SmallFrame(sched, v);
  co_return got + static_cast<int>(scratch[static_cast<size_t>(v) % scratch.size()]);
}

Task<int> OversizedFrame(Scheduler* sched, int v) {
  std::array<char, internal::kFrameClasses * internal::kFrameGranule + 64> scratch{};
  scratch[static_cast<size_t>(v) % scratch.size()] = static_cast<char>(v);
  co_await sched->Delay(Milliseconds(1));
  co_return scratch[static_cast<size_t>(v) % scratch.size()];
}

TEST(FramePoolTest, TwoFrameSizesAreRecycledOverManySpawnCycles) {
  Scheduler sched;
  size_t small_cls = ClassOfFrame([&] { return SmallFrame(&sched, 0); });
  size_t large_cls = ClassOfFrame([&] { return LargeFrame(&sched, 0); });
  if (!internal::kRecycleFrames) {
    // AddressSanitizer build: every frame goes straight back to the heap.
    EXPECT_EQ(small_cls, internal::kFrameClasses);
    EXPECT_EQ(large_cls, internal::kFrameClasses);
  } else {
    ASSERT_LT(small_cls, internal::kFrameClasses);
    ASSERT_LT(large_cls, internal::kFrameClasses);
    EXPECT_LT(small_cls, large_cls);
  }
  constexpr int kRoots = 16;
  int64_t total = 0;
  FrameCounts after_first{};
  for (int cycle = 0; cycle < 200; ++cycle) {
    // All roots are live at once (each waits on a Delay), so a cycle needs kRoots frames of
    // each size; every cycle after the first must take all of them from the free lists.
    for (int i = 0; i < kRoots; ++i) {
      sched.Spawn([](Scheduler* s, int v, int64_t* out) -> Task<void> {
        *out += co_await LargeFrame(s, v);
      }(&sched, i, &total));
    }
    sched.Run();
    if (cycle == 0) {
      after_first = FreeFrames();
      if (internal::kRecycleFrames) {
        EXPECT_GE(after_first[small_cls], static_cast<size_t>(kRoots));
        EXPECT_GE(after_first[large_cls], static_cast<size_t>(kRoots));
      }
    } else {
      ASSERT_EQ(FreeFrames(), after_first) << "cycle " << cycle << " allocated new frames";
    }
  }
  EXPECT_EQ(total, 200 * 2 * (kRoots * (kRoots - 1) / 2));
  if (!internal::kRecycleFrames) {
    EXPECT_EQ(TotalFreeFrames(), 0u);
  }
}

Task<int> ThrowAfterDelay(Scheduler* sched) {
  co_await sched->Delay(Milliseconds(1));
  throw std::runtime_error("boom");
}

Task<int> RethrowThrough(Scheduler* sched) {
  int v = co_await ThrowAfterDelay(sched);  // Propagates: this frame unwinds too.
  co_return v + 1;
}

TEST(FramePoolTest, ExceptionThroughPooledFramesStillPropagates) {
  Scheduler sched;
  int caught = 0;
  FrameCounts after_first{};
  for (int cycle = 0; cycle < 100; ++cycle) {
    sched.Spawn([](Scheduler* s, int* out) -> Task<void> {
      try {
        co_await RethrowThrough(s);
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "boom") ++*out;
      }
    }(&sched, &caught));
    sched.Run();
    if (cycle == 0) {
      after_first = FreeFrames();
    } else {
      ASSERT_EQ(FreeFrames(), after_first) << "cycle " << cycle;
    }
  }
  EXPECT_EQ(caught, 100);
}

struct DestroyCounter {
  int* destroyed;
  ~DestroyCounter() { ++*destroyed; }
};

Task<void> WaitForever(Scheduler* sched, int* destroyed, bool* finished) {
  DestroyCounter guard{destroyed};
  co_await sched->Delay(Seconds(3600));
  *finished = true;
}

TEST(FramePoolTest, SchedulerDestroysSuspendedDetachedChain) {
  int destroyed = 0;
  bool finished = false;
  size_t free_while_live = 0;
  {
    Scheduler sched;
    for (int i = 0; i < 3; ++i) {
      sched.Spawn([](Scheduler* s, int* d, bool* f) -> Task<void> {
        DestroyCounter guard{d};
        co_await WaitForever(s, d, f);
      }(&sched, &destroyed, &finished));
    }
    sched.RunUntil(Seconds(1));  // Every chain is now suspended in its Delay.
    EXPECT_EQ(destroyed, 0);
    free_while_live = TotalFreeFrames();
  }
  // ~Scheduler tore down each root, its lambda frame and the awaited frame.
  EXPECT_EQ(destroyed, 6);
  EXPECT_FALSE(finished);
  if (internal::kRecycleFrames) {
    // 3 chains x (root, lambda, awaited) went back on the free lists.
    EXPECT_EQ(TotalFreeFrames(), free_while_live + 9);
  } else {
    EXPECT_EQ(TotalFreeFrames(), 0u);
  }
}

TEST(FramePoolTest, OversizedFrameTakesTheFallbackPath) {
  Scheduler sched;
  EXPECT_EQ(ClassOfFrame([&] { return OversizedFrame(&sched, 0); }), internal::kFrameClasses);
  int result = 0;
  FrameCounts before = FreeFrames();
  sched.Spawn([](Scheduler* s, int* out) -> Task<void> {
    *out = co_await OversizedFrame(s, 7);
  }(&sched, &result));
  sched.Run();
  EXPECT_EQ(result, 7);
  // The root and lambda frames recycle as usual; the oversized one must not appear in any
  // list — so no class holds more than the two small frames gained.
  FrameCounts after = FreeFrames();
  size_t gained = 0;
  for (size_t cls = 0; cls < after.size(); ++cls) gained += after[cls] - before[cls];
  EXPECT_LE(gained, internal::kRecycleFrames ? 2u : 0u);
}

}  // namespace
}  // namespace halfmoon::sim
