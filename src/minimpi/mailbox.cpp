#include "minimpi/mailbox.hpp"

#include <algorithm>

#include "minimpi/fiber.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

bool Mailbox::on_owner_thread() const noexcept {
  const FiberScheduler* sched = fiber_sched_.load(std::memory_order_acquire);
  return sched != nullptr && sched == FiberScheduler::active();
}

void Mailbox::deliver(Message message) {
  if (on_owner_thread()) {
    // A delivery is the wake: the owning fiber becomes ready.
    queue_.push_back(std::move(message));
    fiber_sched_.load(std::memory_order_relaxed)->make_ready(fiber_rank_);
    return;
  }
  std::lock_guard lock(attach_mutex_);
  if (FiberScheduler* sched = fiber_sched_.load(std::memory_order_relaxed)) {
    // Another thread: the scheduler applies the delivery on its own thread,
    // where this call takes the owner path above (or the detached path
    // below, when the world drains its inbox after teardown).
    sched->post([this, m = std::move(message)]() mutable {
      deliver(std::move(m));
    });
    return;
  }
  queue_.push_back(std::move(message));
}

void Mailbox::set_fiber_waker(FiberScheduler* sched, int owner_rank) {
  std::lock_guard lock(attach_mutex_);
  fiber_sched_.store(sched, std::memory_order_release);
  fiber_rank_ = owner_rank;
}

Message Mailbox::receive(int source, std::uint64_t tag, bool revocable) {
  if (!on_owner_thread() || !FiberScheduler::active()->in_fiber()) {
    throw InternalError("Mailbox::receive called outside its rank fiber");
  }
  FiberScheduler* sched = FiberScheduler::active();
  for (;;) {
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [&](const Message& m) {
                             return m.source == source && m.tag == tag;
                           });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    // No match: doom, poison and revocation end the wait.
    if (doom_ != nullptr && doom_->load(std::memory_order_acquire)) {
      throw RankKilled(doom_rank_, "rank " + std::to_string(doom_rank_) +
                                       " killed while waiting for rank " +
                                       std::to_string(source));
    }
    if (poison_->flag.load(std::memory_order_acquire)) {
      throw WorldAborted("mailbox wait interrupted by world teardown");
    }
    if (revocable && poison_->revoked_flag.load(std::memory_order_acquire)) {
      throw RankRevoked("communicator revoked while waiting for rank " +
                        std::to_string(source));
    }
    // The rendezvous is the yield point: park this fiber until a
    // delivery or a wake resumes it.
    sched->block_current();
  }
}

void Mailbox::wake() {
  if (on_owner_thread()) {
    fiber_sched_.load(std::memory_order_relaxed)->make_ready(fiber_rank_);
    return;
  }
  std::lock_guard lock(attach_mutex_);
  if (FiberScheduler* sched = fiber_sched_.load(std::memory_order_relaxed)) {
    sched->post([sched, rank = fiber_rank_] { sched->make_ready(rank); });
  }
}

// The two inspectors lock in both states: on the owner thread the lock is
// uncontended, and while detached it orders them after a foreign delivery.
std::size_t Mailbox::pending() const {
  std::lock_guard lock(attach_mutex_);
  return queue_.size();
}

bool Mailbox::has_match(int source, std::uint64_t tag) const {
  std::lock_guard lock(attach_mutex_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

}  // namespace fastfit::mpi
