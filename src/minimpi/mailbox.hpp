#pragma once

// Point-to-point transport: one mailbox per rank.
//
// Collectives in MiniMPI are built from real message exchanges over these
// mailboxes (binomial trees, recursive doubling, pairwise exchange), so a
// corrupted parameter that makes ranks disagree about the communication
// schedule — e.g. a flipped `root` — produces a genuine unmatched
// send/recv. A receive parks the calling rank fiber until its message
// arrives; when no rank can ever send it, the world proves the deadlock at
// quiescence (paper: INF_LOOP), and when another rank has already failed,
// the world poison wakes every waiter with WorldAborted so trials finish
// promptly.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace fastfit::mpi {

class FiberScheduler;

/// A delivered message. `tag` encodes (communicator, collective sequence,
/// phase) for collective traffic; plain p2p uses user tags.
struct Message {
  int source = -1;
  std::uint64_t tag = 0;
  std::vector<std::byte> payload;
};

/// Shared flags that tear down a world once any rank fails. Setting one
/// does not wake anybody; the world follows it with Mailbox::wake() on
/// every rank.
struct PoisonState {
  std::atomic<bool> flag{false};
  /// ULFM-style revocation: set (instead of poison) when a rank fail-stops
  /// with repair enabled. Waiters on pre-death communicators observe it
  /// and raise RankRevoked; post-repair communicators are exempt.
  std::atomic<bool> revoked_flag{false};

  void poison() { flag.store(true, std::memory_order_release); }
  void revoke() { revoked_flag.store(true, std::memory_order_release); }
};

/// Unbounded mailbox with (source, tag) matching and parking waits.
///
/// Thread-confinement: while a scheduler is attached (set_fiber_waker),
/// the queue belongs to that scheduler's thread, and deliver(), receive()
/// and wake() there take no lock. A deliver() or wake() from any other thread is
/// posted to the scheduler's inbox and applied on the scheduler thread.
/// While detached (before a world starts, after it drains), the queue is
/// guarded by the attach mutex, so a late foreign delivery cannot race the
/// post-trial audit.
class Mailbox {
 public:
  explicit Mailbox(PoisonState& poison) : poison_(&poison) {}

  /// Enqueues a message and wakes the owning fiber (called by the sending
  /// rank, by the world when it pre-seeds a replayed cut, or by a foreign
  /// thread, whose delivery is routed through the scheduler inbox).
  void deliver(Message message);

  /// Blocks until a message matching (source, tag) is available or the
  /// world is poisoned (throws WorldAborted). Matching is exact;
  /// out-of-order arrivals with other tags stay queued. A wait nobody can
  /// satisfy stays parked until the world's idle handler proves the
  /// deadlock and poisons. When `revocable` is set, a world revocation wakes
  /// the wait with RankRevoked (receives on post-repair communicators pass
  /// revocable=false and keep waiting). A doomed owner (World::kill_rank
  /// or a fail-stop fault on this rank) raises RankKilled instead.
  ///
  /// Must be called from a fiber of the FiberScheduler installed with
  /// set_fiber_waker: the wait yields that fiber, and the rendezvous is
  /// the scheduler's only yield point.
  Message receive(int source, std::uint64_t tag, bool revocable = true);

  /// Arms the fail-stop kill signal for this mailbox's owning rank:
  /// receive() polls `doomed` and raises RankKilled once it latches.
  void set_doom(int owner_rank, const std::atomic<bool>* doomed) {
    doom_rank_ = owner_rank;
    doom_ = doomed;
  }

  /// Number of queued (unmatched) messages; used by tests and the
  /// post-trial transport audit. Owner thread, or any thread while
  /// detached.
  std::size_t pending() const;

  /// Whether a message matching (source, tag) is queued right now. Used
  /// by the idle scan: a blocked rank whose awaited message is already
  /// here is about to make progress, so the world is not deadlocked.
  bool has_match(int source, std::uint64_t tag) const;

  /// Marks the owning fiber ready so a parked receive() rechecks the
  /// poison, revocation and doom flags. Called by the world during
  /// teardown and by kill_rank, from any thread. A no-op while detached.
  void wake();

  /// Wake routing: deliveries and wakes mark `owner_rank`'s fiber ready on
  /// `sched`. Installed by the world before the scheduler starts and
  /// cleared (nullptr) after it drains, both on the scheduler's thread.
  void set_fiber_waker(FiberScheduler* sched, int owner_rank);

 private:
  /// True on the thread of the attached scheduler: the lock-free path.
  bool on_owner_thread() const noexcept;

  std::deque<Message> queue_;
  PoisonState* poison_;
  int doom_rank_ = -1;
  const std::atomic<bool>* doom_ = nullptr;
  // Attachment. Written under attach_mutex_ by the owner thread; a foreign
  // thread reads it under the mutex, so the scheduler cannot detach (and
  // leave its frame) while a post is in flight.
  mutable std::mutex attach_mutex_;
  std::atomic<FiberScheduler*> fiber_sched_{nullptr};
  int fiber_rank_ = -1;
};

}  // namespace fastfit::mpi
