// Coroutine task type for the discrete-event simulation core.
//
// A `Task<T>` is a lazily-started coroutine. Awaiting it starts the child and
// suspends the parent until the child completes; completion resumes the parent
// via symmetric transfer, so arbitrarily deep protocol call chains (e.g. a page
// fault handler awaiting a world switch awaiting a VMCS sync) cost no stack.
//
// Tasks are single-owner move-only handles. A task spawned at the top level of
// a `Simulation` (see simulation.h) is owned by the simulation until it
// finishes.
//
// Frames are recycled: every protocol step is a coroutine, so a simulation
// creates and destroys millions of frames. `task_frames` keeps a
// thread-local free list per 64-byte size class and serves frames from it
// without touching the heap once warm; larger frames go to the heap.
// Simulations are confined to one thread (pvm::sweep runs whole simulations
// per worker), so no list is ever shared. ASan builds compile the pool out,
// so every frame still passes through the sanitizer's allocator and
// quarantine.

#ifndef PVM_SRC_SIM_TASK_H_
#define PVM_SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>

// GCC announces AddressSanitizer with __SANITIZE_ADDRESS__, Clang through
// __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define PVM_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PVM_ASAN_BUILD 1
#endif
#endif

namespace pvm {

class Simulation;

namespace task_frames {

#ifdef PVM_ASAN_BUILD
inline constexpr bool kPooled = false;  // ASan must see every frame
#else
inline constexpr bool kPooled = true;
#endif
inline constexpr std::size_t kClassBytes = 64;
inline constexpr std::size_t kClasses = 32;  // frames up to 2 KiB are pooled

// Per-thread pool state. Trivially destructible and constant-initialized,
// so it stays readable through thread and static teardown; the Drainer
// below returns the cached blocks and marks the pool torn down, after which
// frames go straight to the heap.
struct FreeBlock {
  FreeBlock* next;
};
enum class Phase : std::uint8_t { kUnused, kActive, kTornDown };
struct PoolState {
  FreeBlock* heads[kClasses];
  Phase phase;
};
inline thread_local PoolState pool{};

struct Drainer {
  Drainer() { pool.phase = Phase::kActive; }
  ~Drainer() {
    pool.phase = Phase::kTornDown;
    for (FreeBlock*& head : pool.heads) {
      while (head != nullptr) {
        FreeBlock* block = head;
        head = block->next;
        ::operator delete(block);
      }
    }
  }
};

inline void* allocate(std::size_t size) {
  if constexpr (kPooled) {
    const std::size_t size_class = (size - 1) / kClassBytes;
    if (size_class < kClasses) {
      if (pool.phase == Phase::kUnused) {
        static thread_local Drainer drainer;  // first frame on this thread
        (void)drainer;
      }
      if (FreeBlock* block = pool.heads[size_class]; block != nullptr) {
        pool.heads[size_class] = block->next;
        return block;
      }
      // Every block of a pooled class has the full class size, so any
      // thread's list can take it back.
      return ::operator new((size_class + 1) * kClassBytes);
    }
  }
  return ::operator new(size);
}

inline void deallocate(void* frame, std::size_t size) noexcept {
  if constexpr (kPooled) {
    const std::size_t size_class = (size - 1) / kClassBytes;
    if (size_class < kClasses && pool.phase == Phase::kActive) {
      pool.heads[size_class] = ::new (frame) FreeBlock{pool.heads[size_class]};
      return;
    }
  }
  ::operator delete(frame);
}

}  // namespace task_frames

// State shared by every task promise: the owning simulation, the awaiting
// parent coroutine (if any), and a captured exception to rethrow on resume.
struct TaskPromiseBase {
  Simulation* sim = nullptr;
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  // Coroutine frames come from the per-thread pool (see task_frames).
  static void* operator new(std::size_t size) { return task_frames::allocate(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    task_frames::deallocate(frame, size);
  }

  // On completion, transfer control back to the awaiting parent if there is
  // one; otherwise suspend (a detached/root task whose frame is reclaimed by
  // its owner).
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) {
        return promise.continuation;
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
};

template <typename T>
class Task;

template <typename T>
struct TaskPromise : TaskPromiseBase {
  T value{};

  Task<T> get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_value(T v) { value = std::move(v); }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() {}
  void unhandled_exception() { exception = std::current_exception(); }
};

// A lazily started coroutine returning T. `co_await`ing the task starts it.
template <typename T = void>
class Task {
 public:
  using promise_type = TaskPromise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  // Awaiting a task: wire the child to the parent's simulation, remember the
  // parent as the continuation, and symmetric-transfer into the child.
  struct Awaiter {
    std::coroutine_handle<promise_type> child;

    bool await_ready() const noexcept { return child == nullptr || child.done(); }
    template <typename ParentPromise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<ParentPromise> parent) noexcept {
      child.promise().sim = parent.promise().sim;
      child.promise().continuation = parent;
      return child;
    }
    T await_resume() {
      auto& promise = child.promise();
      if (promise.exception) {
        std::rethrow_exception(promise.exception);
      }
      if constexpr (!std::is_void_v<T>) {
        return std::move(promise.value);
      }
    }
  };

  Awaiter operator co_await() && { return Awaiter{handle_}; }

  // Accessors used by the simulation when adopting a root task.
  std::coroutine_handle<promise_type> handle() const { return handle_; }
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, nullptr); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace pvm

#endif  // PVM_SRC_SIM_TASK_H_
