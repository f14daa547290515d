#pragma once

// The World: a simulated MPI job.
//
// A World runs an SPMD rank function on N ranks, each a resumable fiber
// (minimpi/fiber.hpp) multiplexed on the one thread that calls run(), with
// its own mailbox (transport endpoint) and memory registry (simulated
// address space). It is the failure-containment boundary of a fault-
// injection trial: the first FaultEvent any rank raises is captured,
// the world is poisoned so every other rank unwinds promptly with
// WorldAborted, and run() returns a WorldResult describing the initiating
// event — never letting a "segfault" or "hang" escape the process.
//
// Every MiniMPI wait is a fiber yield point, so when no fiber is runnable
// and no blocked rank's awaited message is queued, the ranks are provably
// deadlocked: the world declares INF_LOOP at that instant, with the
// progress table (minimpi/progress.hpp) as the autopsy, instead of burning
// the watchdog budget. Genuine livelock (a loop that keeps calling MiniMPI
// without progress) still falls back to the wall-clock watchdog. A rank
// that spins without ever entering MiniMPI is outside any in-process
// bound; process isolation's worker lease contains it.
//
// A fiber never outlives run(): every rank unwinds before it returns, and
// WorldResult carries a post-trial audit of the memory registries and
// mailbox queues.
//
// Threading: a world is confined to the thread that calls run(). The
// communicator table, progress table, memory registries, mailbox queues
// and event capture are touched only from that thread and take no lock.
// The cross-thread entries — kill_rank, a poison followed by
// Mailbox::wake, and a Mailbox::deliver from another thread — set an
// atomic flag and/or post to the scheduler's inbox (minimpi/fiber.hpp),
// which the world's thread drains.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/hooks.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/progress.hpp"
#include "minimpi/snapshot.hpp"
#include "minimpi/types.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

class Mpi;
class FiberScheduler;

/// Rank fibers are the one world engine; kept because perfbench names it.
enum class WorldEngine : std::uint8_t { Fibers };

/// Algorithm selection per collective family, mirroring how production
/// MPIs pick among several implementations. Fault *behaviour* differs by
/// algorithm (e.g. a divergent root stalls a chain pipeline differently
/// from a binomial tree), which bench/ablation_algorithms measures.
struct CollectiveAlgorithms {
  enum class Allreduce : std::uint8_t {
    RecursiveDoubling,  ///< MPICH short-vector algorithm (default)
    ReduceBcast,        ///< binomial reduce to rank 0 + binomial bcast
  };
  enum class Bcast : std::uint8_t {
    Binomial,  ///< binomial tree (default)
    Chain,     ///< pipeline through consecutive ranks
  };
  Allreduce allreduce = Allreduce::RecursiveDoubling;
  Bcast bcast = Bcast::Binomial;
};

struct WorldOptions {
  int nranks = 32;
  /// Rendezvous watchdog: a collective that has not completed after this
  /// long is declared hung (paper Table I: INF_LOOP). Must comfortably
  /// exceed the fault-free runtime of the workload. With hang_detection
  /// on this is the *fallback* budget: structural deadlocks are declared
  /// long before it expires.
  std::chrono::milliseconds watchdog{500};
  std::uint64_t seed = 0x5eedULL;
  CollectiveAlgorithms algorithms;
  /// Deterministic hang detection: declare a deadlock structurally the
  /// moment no rank can make progress, instead of waiting for the
  /// watchdog. Livelock still uses the timeout path.
  bool hang_detection = true;
  /// When set, every rank logs its MPI ops and transport payloads here —
  /// the campaign's one fault-free recording run (minimpi/snapshot.hpp).
  std::shared_ptr<PrefixRecorder> recorder;
  /// When set, each rank replays its recorded prefix with zero rendezvous
  /// up to the snapshot's cut, then switches to live execution. In-flight
  /// messages across the cut are pre-seeded before the ranks launch.
  std::shared_ptr<const WorldSnapshot> replay;
  /// ULFM-style shrink-and-continue: when a rank fail-stops, survivors see
  /// RankRevoked (instead of a world poison) and may rebuild a shrunken
  /// communicator via Mpi::shrink_and_continue(). Off = a rank death tears
  /// the world down (outcome RANK_DEAD).
  bool repair = false;
};

/// How a rank failed, for outcome classification (maps onto Table I).
enum class EventType : std::uint8_t {
  AppDetected,  ///< application's own error handling aborted
  MpiErr,       ///< MiniMPI validation rejected a parameter
  SegFault,     ///< memory-registry bounds violation
  Timeout,      ///< watchdog fired or deadlock proven: the job hung
  RankDead,     ///< fail-stop fault killed a rank mid-run
};

const char* to_string(EventType type) noexcept;

/// The first (initiating) failure observed in a world.
struct CapturedEvent {
  EventType type{};
  int rank = -1;
  std::string message;
  std::optional<MpiErrc> mpi_code;
};

/// Result of one world execution. `clean()` does not imply SUCCESS — the
/// trial runner still compares the application's answer against a golden
/// run to distinguish SUCCESS from WRONG_ANS.
struct WorldResult {
  std::optional<CapturedEvent> event;
  /// Forensic snapshot taken when the event was recorded (absent for a
  /// clean run): per-rank phase, heartbeat, pending-op signature.
  std::optional<WorldAutopsy> autopsy;
  /// Post-trial audit: memory-registry regions left registered after all
  /// ranks unwound (0 unless a registration escaped its scope).
  std::size_t leaked_regions = 0;
  /// Post-trial audit: messages still queued in mailboxes. Nonzero is
  /// normal for faulted runs (poison aborts in-flight exchanges) but a
  /// transport leak on a clean run.
  std::size_t undelivered_messages = 0;
  /// At least one rank fail-stopped (the event, if initiating, is
  /// EventType::RankDead).
  bool rank_died = false;
  /// Repair mode was on, a rank died, and *every* survivor completed its
  /// repair hook on the shrunken communicator (outcome REPAIRED).
  bool repaired = false;

  bool clean() const noexcept { return !event.has_value(); }
};

/// All state shared between the ranks and the controlling World. The Mpi
/// facade talks to this class, not to World.
class WorldState {
 public:
  explicit WorldState(const WorldOptions& options);

  const WorldOptions& options() const noexcept { return options_; }
  int size() const noexcept { return options_.nranks; }

  Mailbox& mailbox(int world_rank);
  MemoryRegistry& registry(int world_rank);
  ProgressTable& progress() noexcept { return progress_; }
  PoisonState& poison() noexcept { return poison_; }
  bool poisoned();
  std::chrono::steady_clock::time_point deadline() const noexcept {
    return deadline_;
  }
  ToolHooks* tools() const noexcept { return tools_; }

  /// Records the initiating failure (first wins; WorldAborted never
  /// initiates), snapshots the progress table into the autopsy, and
  /// poisons the world.
  void report_event(int rank, const FaultEvent& event);

  /// Fail-stop path: records the death (EventType::RankDead, first-wins),
  /// marks the rank Dead in the progress table, and either poisons the
  /// world (repair off) or revokes every pre-death communicator and wakes
  /// all waiters so survivors observe RankRevoked (repair on).
  void report_rank_death(int rank, const RankKilled& event);

  /// Marks `world_rank` doomed: its next transport wait, deadline check,
  /// or collective dispatch raises RankKilled on its own fiber. The
  /// injector's rank-death manifestation and tests use this primitive.
  /// Callable from any thread.
  void kill_rank(int world_rank);

  /// Whether kill_rank / a fail-stop fault has doomed this rank (polled by
  /// the rank itself at cancellation points).
  bool rank_doomed(int world_rank) const noexcept {
    return doomed_[static_cast<std::size_t>(world_rank)].load(
        std::memory_order_acquire);
  }

  /// Whether this rank's death has been reported.
  bool rank_dead(int world_rank) const noexcept {
    return dead_[static_cast<std::size_t>(world_rank)];
  }

  /// World ranks whose death has not been reported, in rank order: the
  /// membership of a shrink_and_continue communicator.
  std::vector<int> alive_members() const;

  /// Whether `comm` was revoked by a fail-stop under repair mode.
  /// Communicators registered after the revocation (the shrunken one) are
  /// exempt; everything older raises RankRevoked at its next operation.
  bool comm_revoked(Comm comm) const noexcept;

  /// A survivor completed its repair hook; when every survivor has, the
  /// world result reports repaired=true (outcome REPAIRED).
  void mark_repaired() noexcept { ++repaired_count_; }

  /// Communicator registry. A communicator is a list of world ranks.
  /// `register_comm` is idempotent on `key`: all members of a new
  /// communicator derive the same creation key (parent handle, per-parent
  /// split sequence, color), so each obtains the same handle without any
  /// global ordering.
  Comm register_comm(const std::string& key, std::vector<int> members);

  /// Group of a communicator; throws MpiError(InvalidComm) for a handle
  /// that does not name a live communicator of this world.
  const std::vector<int>& group_of(Comm comm) const;

  /// Rank of `world_rank` within `comm`, or -1 if not a member. O(1).
  int comm_rank_of(Comm comm, int world_rank) const;

  /// Message payload storage, recycled within the world: a receiver hands
  /// back the storage of each message it consumes and the next packed
  /// message reuses it, so steady-state traffic does not allocate.
  std::vector<std::byte> take_payload();
  void recycle_payload(std::vector<std::byte> storage);

 private:
  friend class World;

  /// First-wins event capture with an explicit autopsy (the deadlock
  /// verdict); nullopt snapshots the live table instead.
  /// `poison` = false records the event without tearing the world down
  /// (the repair path: survivors must keep running).
  void capture_event(int rank, const FaultEvent& event,
                     std::optional<WorldAutopsy> autopsy, bool poison = true);

  /// Poison + mailbox wake storm (idempotent).
  void poison_and_wake();

  /// Captures the structural deadlock verdict for an all-stuck snapshot.
  void declare_deadlock(const std::vector<RankSnapshot>& snaps);

  /// The scheduler's idle handler: invoked when no fiber is runnable.
  /// Wakes satisfiable or doomed waits; with nothing to wake, quiescence
  /// ("no runnable fiber, no queued message") IS the structural deadlock.
  /// The watchdog fallback (detection off, single rank, or an in-progress
  /// revocation) waits out the deadline and then wakes every blocked
  /// fiber in rank order.
  void fiber_idle(FiberScheduler& sched);

  WorldOptions options_;
  PoisonState poison_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<MemoryRegistry>> registries_;
  ProgressTable progress_;
  std::chrono::steady_clock::time_point deadline_{};

  std::optional<CapturedEvent> event_;
  std::optional<WorldAutopsy> autopsy_;

  struct CommEntry {
    std::vector<int> members;
    /// World rank -> rank in this communicator (-1 = not a member).
    std::vector<int> rank_of;
  };
  /// The entry a handle names; throws MpiError(InvalidComm) otherwise.
  const CommEntry& comm_entry(Comm comm) const;
  std::vector<CommEntry> comms_;
  std::map<std::string, RawHandle> comm_keys_;

  std::vector<std::vector<std::byte>> spare_payloads_;

  ToolHooks* tools_ = nullptr;

  // Fail-stop bookkeeping: doomed_ is the kill signal a rank polls at its
  // cancellation points (atomic: kill_rank may come from another thread);
  // dead_ records reported deaths; revoked_comm_limit_ is the size of the
  // communicator table at revocation time (older handles are revoked,
  // newer — the shrunken comm — are exempt).
  std::unique_ptr<std::atomic<bool>[]> doomed_;
  std::vector<bool> dead_;
  int dead_count_ = 0;
  int repaired_count_ = 0;
  std::size_t revoked_comm_limit_ = 0;

  // Internal (non-fault) exception escaping a rank.
  std::exception_ptr internal_error_;
};

/// Thin single-use handle over a shared WorldState. Stack-allocatable (as
/// every test does).
class World {
 public:
  explicit World(WorldOptions options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank, as fibers on the calling thread, and
  /// returns once all of them have unwound. Callable once per World.
  /// Exceptions that are not FaultEvents (library bugs) are re-thrown to
  /// the caller.
  WorldResult run(const std::function<void(Mpi&)>& rank_main);

  const WorldOptions& options() const noexcept { return state_->options(); }
  int size() const noexcept { return state_->size(); }

  /// Installs the tool chain every collective dispatches through.
  void set_tools(ToolHooks* tools) noexcept;
  ToolHooks* tools() const noexcept { return state_->tools(); }

  /// The shared state (used by the Mpi facade and by tests that poke at
  /// mailboxes/registries directly).
  const std::shared_ptr<WorldState>& state() noexcept { return state_; }

  // --- forwarded accessors (source compatibility) ------------------------

  Mailbox& mailbox(int world_rank) { return state_->mailbox(world_rank); }
  MemoryRegistry& registry(int world_rank) {
    return state_->registry(world_rank);
  }
  PoisonState& poison() noexcept { return state_->poison(); }
  bool poisoned() { return state_->poisoned(); }
  std::chrono::steady_clock::time_point deadline() const noexcept {
    return state_->deadline();
  }
  void report_event(int rank, const FaultEvent& event) {
    state_->report_event(rank, event);
  }
  /// Fail-stop test primitive: dooms one rank; it dies at its next
  /// cancellation point (transport wait, deadline check, dispatch).
  /// Callable from any thread.
  void kill_rank(int world_rank) { state_->kill_rank(world_rank); }
  Comm register_comm(const std::string& key, std::vector<int> members) {
    return state_->register_comm(key, std::move(members));
  }
  const std::vector<int>& group_of(Comm comm) const {
    return state_->group_of(comm);
  }
  int comm_rank_of(Comm comm, int world_rank) const {
    return state_->comm_rank_of(comm, world_rank);
  }

 private:
  std::shared_ptr<WorldState> state_;
  bool ran_ = false;
};

}  // namespace fastfit::mpi
