#include "minimpi/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/error.hpp"

#if defined(FASTFIT_FAST_SWITCH)

// The syscall-free context switch. SysV x86-64: everything not on this
// list is caller-saved and already spilled by the compiler around the
// call, so saving the six callee-saved GPRs plus the FP control words
// (mxcsr, x87 cw — callee-saved per the psABI) is a complete context.
// The saved frame layout (from the parked sp upward) is:
//   sp+2  x87 control word        sp+4  mxcsr
//   sp+8  r15 .. sp+40 rbx       sp+48 rbp      sp+56 return address
// init_fast_stack() fabricates exactly this frame so the first switch
// into a fresh fiber "returns" into fastfit_fiber_entry.
extern "C" void fastfit_ctx_swap(void** save_sp, void* target_sp) noexcept;
extern "C" void fastfit_fiber_entry();

asm(R"(
    .text
    .globl fastfit_ctx_swap
    .type fastfit_ctx_swap, @function
fastfit_ctx_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  2(%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    fldcw   2(%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    retq
    .size fastfit_ctx_swap, .-fastfit_ctx_swap
)");

extern "C" void fastfit_fiber_entry() {
  // Runs body and dies into the scheduler; a Done fiber is never
  // resumed, so this call cannot return.
  fastfit::mpi::FiberScheduler::trampoline();
  std::abort();
}

#endif  // FASTFIT_FAST_SWITCH

#if defined(FASTFIT_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(FASTFIT_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace fastfit::mpi {
namespace {

// The scheduler driving the calling thread. One level only: worlds do
// not nest, and a fiber never runs another scheduler.
thread_local FiberScheduler* t_active = nullptr;

// Per-thread fiber stack cache. A campaign runs thousands of worlds on
// the same few executor threads; recycling stacks keeps their pages
// faulted-in and resident instead of paying a fresh 256 KiB allocation
// plus first-touch faults per rank per trial. Stacks are handed out
// uninitialized — a context's stack needs no clearing.
class StackPool {
 public:
  std::unique_ptr<std::byte[]> acquire(std::size_t bytes) {
    if (bytes != bytes_) {
      free_.clear();  // size changed (tests tune it): drop the cache
      bytes_ = bytes;
    } else if (!free_.empty()) {
      auto stack = std::move(free_.back());
      free_.pop_back();
      return stack;
    }
    return std::unique_ptr<std::byte[]>(new std::byte[bytes]);
  }

  void release(std::unique_ptr<std::byte[]> stack) {
    if (free_.size() < kMaxCached) free_.push_back(std::move(stack));
  }

 private:
  // Bounds the cache at one full-size world per thread (512 fibers of
  // 256 KiB = 128 MiB); larger worlds simply reallocate the excess.
  static constexpr std::size_t kMaxCached = 512;
  std::size_t bytes_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> free_;
};

thread_local StackPool t_stack_pool;

#if defined(FASTFIT_FAST_SWITCH)
// Writes the bootstrap frame fastfit_ctx_swap restores from (layout
// documented at its definition) and returns the initial parked sp.
// Alignment: sp is chosen so the entry thunk starts with rsp % 16 == 8,
// exactly as if it had been `call`ed.
void* init_fast_stack(std::byte* base, std::size_t bytes) {
  const auto top =
      reinterpret_cast<std::uintptr_t>(base + bytes) & ~std::uintptr_t{15};
  std::byte* sp = reinterpret_cast<std::byte*>(top) - 72;
  std::memset(sp, 0, 64);
  std::uint32_t mxcsr;
  std::uint16_t fpcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
  std::memcpy(sp + 2, &fpcw, sizeof fpcw);
  std::memcpy(sp + 4, &mxcsr, sizeof mxcsr);
  const auto entry = reinterpret_cast<std::uintptr_t>(&fastfit_fiber_entry);
  std::memcpy(sp + 56, &entry, sizeof entry);
  return sp;
}
#endif  // FASTFIT_FAST_SWITCH

#if defined(FASTFIT_ASAN_FIBERS)
// The OS thread's real stack, learned from the first switch away from
// it; needed to annotate every fiber -> scheduler switch.
thread_local const void* t_sched_stack_bottom = nullptr;
thread_local std::size_t t_sched_stack_size = 0;
#endif

}  // namespace

FiberScheduler* FiberScheduler::active() noexcept { return t_active; }

FiberScheduler::FiberScheduler(int nfibers, std::size_t stack_bytes)
    : nfibers_(nfibers), stack_bytes_(stack_bytes) {
  if (nfibers_ < 1) {
    throw InternalError("FiberScheduler: need at least one fiber");
  }
  fibers_.resize(static_cast<std::size_t>(nfibers_));
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::trampoline() {
  FiberScheduler* self = t_active;
  const int i = self->current_;
#if defined(FASTFIT_ASAN_FIBERS)
  // First arrival on this fiber's stack: record where we came from (the
  // scheduler's real thread stack) for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &t_sched_stack_bottom,
                                  &t_sched_stack_size);
#endif
  try {
    (*self->body_)(i);
  } catch (...) {
    // The world's rank wrapper catches everything; anything landing here
    // is a scheduler-user bug. First error wins, mirroring the executor.
    if (!self->error_) self->error_ = std::current_exception();
  }
  self->fibers_[static_cast<std::size_t>(i)].state = State::Done;
  ++self->finished_;
  self->switch_to_scheduler(/*dying=*/true);
  // Unreachable: a dying fiber is never resumed (on the ucontext path
  // uc_link backstops it; on the fast path the entry thunk aborts).
}

void FiberScheduler::resume(int fiber) {
  Fiber& f = fibers_[static_cast<std::size_t>(fiber)];
  f.state = State::Running;
  current_ = fiber;
#if defined(FASTFIT_TSAN_FIBERS)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
#if defined(FASTFIT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&asan_fake_stack_, f.stack.get(),
                                 stack_bytes_);
#endif
#if defined(FASTFIT_FAST_SWITCH)
  fastfit_ctx_swap(&sched_sp_, f.saved_sp);
#else
  swapcontext(&sched_context_, &f.context);
#endif
#if defined(FASTFIT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, nullptr, nullptr);
#endif
  current_ = -1;
}

void FiberScheduler::switch_to_scheduler(bool dying) {
  Fiber& f = fibers_[static_cast<std::size_t>(current_)];
#if defined(FASTFIT_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_sched_fiber_, 0);
#endif
#if defined(FASTFIT_ASAN_FIBERS)
  // A dying fiber passes nullptr so ASan releases its fake stack.
  void* asan_save = nullptr;
  __sanitizer_start_switch_fiber(dying ? nullptr : &asan_save,
                                 t_sched_stack_bottom, t_sched_stack_size);
#endif
#if defined(FASTFIT_FAST_SWITCH)
  fastfit_ctx_swap(&f.saved_sp, sched_sp_);
#else
  swapcontext(&f.context, &sched_context_);
#endif
  // Only a blocked (not dying) fiber ever gets here, freshly resumed.
#if defined(FASTFIT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_save, nullptr, nullptr);
#else
  (void)dying;
#endif
}

void FiberScheduler::block_current() {
  if (current_ < 0) {
    throw InternalError("FiberScheduler::block_current: not inside a fiber");
  }
  fibers_[static_cast<std::size_t>(current_)].state = State::Blocked;
  switch_to_scheduler(/*dying=*/false);
}

void FiberScheduler::make_ready(int fiber) {
  Fiber& f = fibers_[static_cast<std::size_t>(fiber)];
  if (f.state != State::Blocked) return;
  f.state = State::Ready;
  ready_.push_back(fiber);
}

void FiberScheduler::post(std::function<void()> task) {
  {
    std::lock_guard lock(inbox_mutex_);
    inbox_.push_back(std::move(task));
    inbox_pending_.store(true, std::memory_order_release);
  }
  inbox_cv_.notify_one();
}

void FiberScheduler::drain_inbox() {
  if (!inbox_pending_.load(std::memory_order_acquire)) return;
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(inbox_mutex_);
    tasks.swap(inbox_);
    inbox_pending_.store(false, std::memory_order_relaxed);
  }
  for (auto& task : tasks) task();
}

std::vector<int> FiberScheduler::blocked() const {
  std::vector<int> out;
  for (int i = 0; i < nfibers_; ++i) {
    if (fibers_[static_cast<std::size_t>(i)].state == State::Blocked) {
      out.push_back(i);
    }
  }
  return out;
}

bool FiberScheduler::wait_for_ready(
    std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    drain_inbox();
    if (!ready_.empty()) return true;
    std::unique_lock lock(inbox_mutex_);
    if (!inbox_cv_.wait_until(lock, deadline, [this] {
          return inbox_pending_.load(std::memory_order_relaxed);
        })) {
      return false;
    }
  }
}

void FiberScheduler::run(const std::function<void(int)>& body,
                         const std::function<void()>& on_idle) {
  if (t_active != nullptr) {
    throw InternalError("FiberScheduler::run: schedulers do not nest");
  }
  t_active = this;
  body_ = &body;
#if defined(FASTFIT_TSAN_FIBERS)
  tsan_sched_fiber_ = __tsan_get_current_fiber();
#endif

  for (int i = 0; i < nfibers_; ++i) {
    Fiber& f = fibers_[static_cast<std::size_t>(i)];
    f.stack = t_stack_pool.acquire(stack_bytes_);
#if defined(FASTFIT_FAST_SWITCH)
    f.saved_sp = init_fast_stack(f.stack.get(), stack_bytes_);
#else
    if (getcontext(&f.context) != 0) {
      t_active = nullptr;
      throw InternalError("FiberScheduler: getcontext failed");
    }
    f.context.uc_stack.ss_sp = f.stack.get();
    f.context.uc_stack.ss_size = stack_bytes_;
    f.context.uc_link = &sched_context_;
    makecontext(&f.context, &FiberScheduler::trampoline, 0);
#endif
#if defined(FASTFIT_TSAN_FIBERS)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
    f.state = State::Ready;
    ready_.push_back(i);
  }

  while (finished_ < nfibers_) {
    drain_inbox();
    if (!ready_.empty()) {
      const int next = ready_.front();
      ready_.pop_front();
      resume(next);
      continue;
    }
    // No runnable fiber. The idle handler owns the verdict: wake a
    // satisfiable wait, prove a deadlock, or wait out the watchdog.
    on_idle();
  }

#if defined(FASTFIT_TSAN_FIBERS)
  for (auto& f : fibers_) {
    if (f.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(f.tsan_fiber);
      f.tsan_fiber = nullptr;
    }
  }
#endif
  for (auto& f : fibers_) {
    if (f.stack != nullptr) t_stack_pool.release(std::move(f.stack));
  }
  body_ = nullptr;
  t_active = nullptr;
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }
}

}  // namespace fastfit::mpi
