#include "src/sim/scheduler.h"

#include <cstdio>
#include <cstdlib>

namespace halfmoon::sim {
namespace {

// A self-destructing root coroutine used to anchor detached tasks. Its frame is destroyed
// automatically at final_suspend (suspend_never), after the awaited task has completed and
// been destroyed with it. The promise is the frame's link in the scheduler's list of live
// roots and unlinks itself in its destructor, which runs both on natural completion and on
// explicit destroy. Its frame is recycled like every task frame (task.h).
struct Detached {
  struct promise_type : internal::DetachedLink {
    ~promise_type() { Unlink(); }

    Detached get_return_object() {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept {
      std::fprintf(stderr, "fatal: exception escaped a detached sim task\n");
      std::abort();
    }

    static void* operator new(size_t bytes) { return internal::FrameAlloc(bytes); }
    static void operator delete(void* ptr, size_t bytes) noexcept {
      internal::FrameFree(ptr, bytes);
    }
  };

  std::coroutine_handle<promise_type> handle;
};

Detached RunDetached(Task<void> task) { co_await std::move(task); }

}  // namespace

void Scheduler::Spawn(Task<void> task) {
  Detached detached = RunDetached(std::move(task));
  detached_.LinkAfter(&detached.handle.promise());
  PostResume(0, detached.handle);
}

Scheduler::~Scheduler() {
  // Each destroy unlinks its root (promise destructor), so the list drains from the front.
  // Pending queue events may hold handles into the destroyed chains; they are never fired,
  // only dropped.
  while (detached_.next != &detached_) {
    auto* promise = static_cast<Detached::promise_type*>(detached_.next);
    std::coroutine_handle<Detached::promise_type>::from_promise(*promise).destroy();
  }
}

}  // namespace halfmoon::sim
