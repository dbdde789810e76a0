// Task<T>: the coroutine type every simulated activity is written in.
//
// Tasks are lazy (they start when first awaited) and use symmetric transfer so that deep
// call chains of `co_await` neither recurse on the stack nor bounce through the scheduler.
// A Task owns its coroutine frame; awaiting a task transfers control into it and resumes the
// awaiter when the task completes. Exceptions thrown inside a task propagate to the awaiter,
// which is how injected SSF crashes unwind through protocol code back to the runtime.
//
// Frames are recycled (FrameAlloc/FrameFree below): every invocation builds and tears down a
// chain of task frames, so frames come from per-thread free lists of 64-byte size classes
// instead of the general-purpose heap.

#ifndef HALFMOON_SIM_TASK_H_
#define HALFMOON_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace halfmoon::sim {

template <typename T>
class Task;

namespace internal {

// ---- Coroutine frame recycling ----
// A frame of n bytes belongs to size class (n - 1) / kFrameGranule and is served from that
// class's per-thread free list, falling back to ::operator new for a class's first frames.
// A freed frame goes back on its class's list; the lists never shrink, so they hold at most
// the peak number of live frames per class. Frames larger than the biggest class bypass the
// lists. Under AddressSanitizer every frame bypasses them: a LIFO free list hands a freed
// frame straight back out, which would defeat ASan's quarantine and hide use-after-free of
// a destroyed frame.
inline constexpr size_t kFrameGranule = 64;
inline constexpr size_t kFrameClasses = 32;  // Pooled frames up to 2 KiB.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kRecycleFrames = false;
#else
inline constexpr bool kRecycleFrames = true;
#endif

struct FreeFrame {
  FreeFrame* next;
};
inline thread_local FreeFrame* free_frames[kFrameClasses] = {};

inline size_t FrameClass(size_t bytes) { return (bytes - 1) / kFrameGranule; }

inline void* FrameAlloc(size_t bytes) {
  size_t cls = FrameClass(bytes);
  if (!kRecycleFrames || cls >= kFrameClasses) return ::operator new(bytes);
  FreeFrame*& head = free_frames[cls];
  if (head == nullptr) return ::operator new((cls + 1) * kFrameGranule);
  FreeFrame* frame = head;
  head = frame->next;
  return frame;
}

inline void FrameFree(void* ptr, size_t bytes) noexcept {
  size_t cls = FrameClass(bytes);
  if (!kRecycleFrames || cls >= kFrameClasses) {
    ::operator delete(ptr, bytes);
    return;
  }
  FreeFrame* frame = static_cast<FreeFrame*>(ptr);
  frame->next = free_frames[cls];
  free_frames[cls] = frame;
}

// Number of recycled frames waiting in size class `cls` on this thread (tests only).
inline size_t FreeFrameCount(size_t cls) {
  size_t n = 0;
  for (const FreeFrame* f = free_frames[cls]; f != nullptr; f = f->next) ++n;
  return n;
}

// Transfers control back to the awaiting coroutine (if any) when a task finishes.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> handle) noexcept {
    std::coroutine_handle<> continuation = handle.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }

  static void* operator new(size_t bytes) { return FrameAlloc(bytes); }
  static void operator delete(void* ptr, size_t bytes) noexcept { FrameFree(ptr, bytes); }
};

template <typename T>
struct TaskPromise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
      handle.promise().continuation = awaiting;
      return handle;  // Symmetric transfer: start (or resume into) the task.
    }

    T await_resume() {
      auto& promise = handle.promise();
      if (promise.exception) {
        std::rethrow_exception(promise.exception);
      }
      if constexpr (!std::is_void_v<T>) {
        HM_CHECK_MSG(promise.value.has_value(), "Task finished without a value");
        return std::move(*promise.value);
      }
    }
  };

  // Tasks are single-shot: awaiting consumes the result.
  Awaiter operator co_await() && {
    HM_CHECK_MSG(handle_, "co_await on an empty Task");
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace halfmoon::sim

#endif  // HALFMOON_SIM_TASK_H_
