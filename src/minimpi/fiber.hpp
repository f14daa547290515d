#pragma once

// Stackful rank fibers: the world engine's execution contexts.
//
// A FiberScheduler multiplexes N resumable rank contexts onto the ONE
// OS thread that calls run() — a World under the fiber engine therefore
// never creates a thread of its own, and a campaign's total thread count
// is bounded by the executor's worker-pool width no matter how many
// ranks each trial simulates. Fibers are resumable contexts on
// heap-allocated stacks; a context switch is a user-space register swap
// with no kernel involvement (fastfit_ctx_swap on x86-64, ucontext
// elsewhere), so a world pays no OS-thread spawn, join or scheduling
// cost.
//
// Scheduling is cooperative and deterministic: the ready queue is FIFO,
// seeded in rank order, and every yield point is a mailbox rendezvous
// (minimpi/mailbox.cpp) — rank code never observes preemption. Because
// MiniMPI matching is exact on (source, tag), the schedule cannot change
// any rank's observable execution.
//
// A scheduler is confined to the thread that runs it: the ready queue,
// the fiber states and every mailbox queue they wait on are touched only
// from that thread, without locks. The one cross-thread entry is the
// inbox: post() hands a task (a foreign kill_rank's wake, a poison wake, a
// delivery from a test thread) to the scheduler under the inbox mutex, and
// the scheduler drains it on its own thread between fibers and while idle.
//
// Sanitizer support: under TSan and ASan every switch is annotated with
// the fiber APIs (__tsan_switch_to_fiber / __sanitizer_start_switch_
// fiber), so the fiber suites run under the sanitizer CI jobs like any
// other code.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <ucontext.h>
#include <vector>

// Sanitizer fiber-API detection: GCC defines __SANITIZE_THREAD__ /
// __SANITIZE_ADDRESS__; Clang exposes __has_feature. Raw swapcontext
// without these annotations makes TSan report false races (it keeps
// analyzing the old stack) and breaks ASan's fake-stack bookkeeping.
#if defined(__SANITIZE_THREAD__)
#define FASTFIT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FASTFIT_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FASTFIT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FASTFIT_ASAN_FIBERS 1
#endif
#endif

// Hot-path switch selection: glibc's swapcontext makes a rt_sigprocmask
// syscall per switch — two kernel round trips per mailbox rendezvous,
// the single largest cost left on the fiber fast path. On x86-64 Linux
// plain builds the scheduler switches with fastfit_ctx_swap (fiber.cpp),
// a ~20-instruction callee-saved register swap with no kernel
// involvement. Sanitizer builds keep ucontext so the fiber annotations
// stay on the well-trodden path, as do other architectures.
#if defined(__x86_64__) && defined(__linux__) &&  \
    !defined(FASTFIT_TSAN_FIBERS) && !defined(FASTFIT_ASAN_FIBERS)
#define FASTFIT_FAST_SWITCH 1
#endif

namespace fastfit::mpi {

class FiberScheduler {
 public:
  /// Default fiber stack: generous for the bundled mini-apps (their rank
  /// functions keep bulk data on the heap), small enough that a 256-rank
  /// world costs tens of MiB, not gigabytes of kernel thread stacks.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit FiberScheduler(int nfibers,
                          std::size_t stack_bytes = kDefaultStackBytes);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs body(i) for every fiber i to completion, multiplexed on the
  /// calling thread. Whenever no fiber is ready and not all have
  /// finished, on_idle() is invoked; it must eventually make a fiber
  /// ready (wake a satisfiable wait, declare a deadlock and poison, or
  /// wake all blocked fibers at the watchdog deadline) — with every
  /// MiniMPI wait a cancellation point, a blocked fiber always unwinds
  /// once resumed, so run() terminates for every cooperative workload.
  void run(const std::function<void(int)>& body,
           const std::function<void()>& on_idle);

  /// The scheduler driving the calling thread, or nullptr when the
  /// caller is a plain thread. Mailbox::receive parks on it.
  static FiberScheduler* active() noexcept;

  /// Index of the fiber running on this scheduler, -1 between fibers.
  int current() const noexcept { return current_; }

  /// True while the calling thread is executing inside a fiber body.
  bool in_fiber() const noexcept { return current_ >= 0; }

  /// Parks the current fiber and switches to the scheduler. Returns when
  /// some make_ready(current) resumes it.
  void block_current();

  /// Marks a blocked fiber ready (FIFO). Scheduler thread only: a sender
  /// fiber delivering to a parked receiver, or the idle handler. Other
  /// threads go through post(). Waking a running, ready or finished fiber
  /// is a no-op: a running fiber rechecks its mailbox and the world flags
  /// before it parks.
  void make_ready(int fiber);

  /// Hands `task` to the scheduler thread, which runs it between fibers or
  /// from wait_for_ready(). Callable from any thread; the only entry into
  /// a running world from outside it.
  void post(std::function<void()> task);

  /// Runs every posted task now, on the calling (scheduler) thread.
  void drain_inbox();

  /// Blocked fibers in rank order — the idle handler's scan set.
  std::vector<int> blocked() const;

  /// Idle wait: runs posted tasks as they arrive until a fiber is ready or
  /// `deadline` passes. Returns true when a fiber is ready. Only
  /// meaningful from on_idle().
  bool wait_for_ready(std::chrono::steady_clock::time_point deadline);

  /// Fibers whose body has returned.
  int finished() const noexcept { return finished_; }

  /// First frame of every fiber: runs body_(current_) and reports back.
  /// Public only because the fast-switch entry thunk (an extern "C"
  /// symbol the bootstrap stack frame returns into) must call it.
  static void trampoline();

 private:
  enum class State : std::uint8_t { Ready, Running, Blocked, Done };

  struct Fiber {
    ucontext_t context{};
    void* saved_sp = nullptr;  // fast-switch path: parked stack pointer
    std::unique_ptr<std::byte[]> stack;
    State state = State::Ready;
#if defined(FASTFIT_TSAN_FIBERS)
    void* tsan_fiber = nullptr;
#endif
  };

  void resume(int fiber);
  void switch_to_scheduler(bool dying);

  const int nfibers_;
  const std::size_t stack_bytes_;
  std::vector<Fiber> fibers_;
  ucontext_t sched_context_{};
  void* sched_sp_ = nullptr;  // fast-switch path: scheduler's parked sp

  std::deque<int> ready_;
  int finished_ = 0;

  // The inbox: the only state other threads touch.
  std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;
  std::vector<std::function<void()>> inbox_;
  std::atomic<bool> inbox_pending_{false};

  int current_ = -1;
  const std::function<void(int)>* body_ = nullptr;
  std::exception_ptr error_;

#if defined(FASTFIT_TSAN_FIBERS)
  void* tsan_sched_fiber_ = nullptr;
#endif
#if defined(FASTFIT_ASAN_FIBERS)
  void* asan_fake_stack_ = nullptr;  // scheduler context's saved fake stack
#endif
};

}  // namespace fastfit::mpi
