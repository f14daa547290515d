#pragma once

// The per-rank MPI facade: MiniMPI's public API.
//
// One Mpi object is handed to each rank's main function by World::run. Its
// collective methods mirror the MPI-3 C bindings (buffer, count, datatype,
// op, root, comm) and every call:
//
//   1. is wrapped in a CollectiveCall record,
//   2. flows through the installed ToolHooks chain (profiler, injector),
//   3. is validated like a production MPI validates its arguments,
//   4. executes a real message-passing algorithm (binomial trees,
//      recursive doubling, ring, pairwise exchange) over the mailbox
//      transport, with every application-buffer access bounds-checked
//      against the rank's MemoryRegistry.
//
// Call sites are identified by std::source_location so the profiling and
// pruning layers can reason about "the MPI_Allreduce at lu.cpp:123",
// matching the paper's call-site granularity.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <source_location>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/datatype.hpp"
#include "minimpi/hooks.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/op.hpp"
#include "minimpi/snapshot.hpp"
#include "minimpi/types.hpp"
#include "minimpi/world.hpp"

namespace fastfit::mpi {

/// Temporarily registers a stack or member object with a MemoryRegistry;
/// used by the typed convenience wrappers below.
class ScopedRegistration {
 public:
  ScopedRegistration(MemoryRegistry& registry, const void* ptr,
                     std::size_t bytes)
      : registry_(&registry), ptr_(ptr), bytes_(bytes) {
    registry_->add(ptr, bytes);
  }
  // Zero-byte registrations are no-ops on both ends (the registry keeps
  // no record for them).
  ~ScopedRegistration() {
    if (bytes_ > 0) registry_->remove(ptr_);
  }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

 private:
  MemoryRegistry* registry_;
  const void* ptr_;
  std::size_t bytes_;
};

class Mpi {
 public:
  /// A facade binds to the shared WorldState, not the World handle.
  Mpi(std::shared_ptr<WorldState> state, int world_rank);

  /// Flushes any messages a transport fault held for delayed delivery (the
  /// rank's end is the last point "later" can mean).
  ~Mpi();

  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  int world_rank() const noexcept { return world_rank_; }

  /// Rank of this process in `comm` (-1 never escapes: non-membership
  /// throws MpiError(InvalidComm), as using a foreign communicator would).
  int rank(Comm comm = kCommWorld) const;
  int size(Comm comm = kCommWorld) const;

  MemoryRegistry& registry() { return world_->registry(world_rank_); }

  /// Cooperative watchdog check for application compute loops; throws
  /// SimTimeout past the deadline and WorldAborted once the world is
  /// poisoned. Workloads call this once per outer iteration. Also bumps
  /// this rank's heartbeat, so a compute loop reads as live progress in
  /// autopsies (livelock keeps the timeout path).
  void check_deadline();

  /// Shadow-stack probe: where this rank is in application terms. The
  /// trial runner installs one per rank (backed by the rank's trace
  /// context); its result is folded into the pending-op signature that
  /// hang verdicts and autopsies report. Must only be called from this
  /// rank's own fiber.
  struct StackProbe {
    std::uint64_t stack_id = 0;
    std::string frame;  ///< innermost shadow frame name
  };
  void set_stack_probe(std::function<StackProbe()> probe) {
    stack_probe_ = std::move(probe);
  }

  // --- point-to-point ----------------------------------------------------

  void send(const void* buf, std::int32_t count, Datatype dtype, int dest,
            std::int32_t tag, Comm comm = kCommWorld,
            std::source_location loc = std::source_location::current());
  void recv(void* buf, std::int32_t count, Datatype dtype, int source,
            std::int32_t tag, Comm comm = kCommWorld,
            std::source_location loc = std::source_location::current());

  /// Nonblocking handle. MiniMPI sends eagerly (buffered), so an isend
  /// request completes immediately; an irecv request defers matching to
  /// wait(). Destroying an incomplete request is an error surfaced by
  /// waitall/wait left undone — tests assert via pending().
  class Request {
   public:
    Request() = default;
    bool pending() const noexcept { return pending_.has_value(); }

   private:
    friend class Mpi;
    struct PendingRecv {
      void* buf;
      std::int32_t count;
      Datatype dtype;
      int source;
      std::int32_t tag;
      Comm comm;
    };
    std::optional<PendingRecv> pending_;
  };

  /// Buffered nonblocking send: the message is injected eagerly; the
  /// returned request is already complete (kept for symmetry/waitall).
  Request isend(const void* buf, std::int32_t count, Datatype dtype, int dest,
                std::int32_t tag, Comm comm = kCommWorld,
                std::source_location loc = std::source_location::current());

  /// Nonblocking receive: parameters are captured (and interposed) now;
  /// matching happens at wait().
  Request irecv(void* buf, std::int32_t count, Datatype dtype, int source,
                std::int32_t tag, Comm comm = kCommWorld,
                std::source_location loc = std::source_location::current());

  /// Completes a request (blocking for pending receives). Idempotent.
  void wait(Request& request);

  /// Completes every request in the span.
  void waitall(std::span<Request> requests);

  // --- collectives (MPI-3 shapes) -----------------------------------------

  void barrier(Comm comm = kCommWorld,
               std::source_location loc = std::source_location::current());

  void bcast(void* buf, std::int32_t count, Datatype dtype, std::int32_t root,
             Comm comm = kCommWorld,
             std::source_location loc = std::source_location::current());

  void reduce(const void* sendbuf, void* recvbuf, std::int32_t count,
              Datatype dtype, Op op, std::int32_t root,
              Comm comm = kCommWorld,
              std::source_location loc = std::source_location::current());

  void allreduce(const void* sendbuf, void* recvbuf, std::int32_t count,
                 Datatype dtype, Op op, Comm comm = kCommWorld,
                 std::source_location loc = std::source_location::current());

  void scatter(const void* sendbuf, std::int32_t sendcount, Datatype sendtype,
               void* recvbuf, std::int32_t recvcount, Datatype recvtype,
               std::int32_t root, Comm comm = kCommWorld,
               std::source_location loc = std::source_location::current());

  void gather(const void* sendbuf, std::int32_t sendcount, Datatype sendtype,
              void* recvbuf, std::int32_t recvcount, Datatype recvtype,
              std::int32_t root, Comm comm = kCommWorld,
              std::source_location loc = std::source_location::current());

  void allgather(const void* sendbuf, std::int32_t sendcount,
                 Datatype sendtype, void* recvbuf, std::int32_t recvcount,
                 Datatype recvtype, Comm comm = kCommWorld,
                 std::source_location loc = std::source_location::current());

  void scatterv(const void* sendbuf,
                const std::vector<std::int32_t>& sendcounts,
                const std::vector<std::int32_t>& sdispls, Datatype sendtype,
                void* recvbuf, std::int32_t recvcount, Datatype recvtype,
                std::int32_t root, Comm comm = kCommWorld,
                std::source_location loc = std::source_location::current());

  void gatherv(const void* sendbuf, std::int32_t sendcount, Datatype sendtype,
               void* recvbuf, const std::vector<std::int32_t>& recvcounts,
               const std::vector<std::int32_t>& rdispls, Datatype recvtype,
               std::int32_t root, Comm comm = kCommWorld,
               std::source_location loc = std::source_location::current());

  void allgatherv(const void* sendbuf, std::int32_t sendcount,
                  Datatype sendtype, void* recvbuf,
                  const std::vector<std::int32_t>& recvcounts,
                  const std::vector<std::int32_t>& rdispls, Datatype recvtype,
                  Comm comm = kCommWorld,
                  std::source_location loc = std::source_location::current());

  void alltoall(const void* sendbuf, std::int32_t sendcount, Datatype sendtype,
                void* recvbuf, std::int32_t recvcount, Datatype recvtype,
                Comm comm = kCommWorld,
                std::source_location loc = std::source_location::current());

  void alltoallv(const void* sendbuf,
                 const std::vector<std::int32_t>& sendcounts,
                 const std::vector<std::int32_t>& sdispls, Datatype sendtype,
                 void* recvbuf, const std::vector<std::int32_t>& recvcounts,
                 const std::vector<std::int32_t>& rdispls, Datatype recvtype,
                 Comm comm = kCommWorld,
                 std::source_location loc = std::source_location::current());

  void reduce_scatter_block(
      const void* sendbuf, void* recvbuf, std::int32_t recvcount,
      Datatype dtype, Op op, Comm comm = kCommWorld,
      std::source_location loc = std::source_location::current());

  void scan(const void* sendbuf, void* recvbuf, std::int32_t count,
            Datatype dtype, Op op, Comm comm = kCommWorld,
            std::source_location loc = std::source_location::current());

  // --- communicator management --------------------------------------------

  /// Collective over `parent`: partitions ranks by `color`, orders each
  /// group by (key, parent rank). Returns the caller's new communicator.
  Comm comm_split(Comm parent, int color, int key);

  /// Collective over `parent`: duplicate with identical membership.
  Comm comm_dup(Comm parent);

  // --- ULFM-style repair ----------------------------------------------------

  /// After catching RankRevoked (a peer fail-stopped under repair mode):
  /// builds the communicator of surviving ranks. No rendezvous — every
  /// survivor derives the same member list from the world's stable dead
  /// set, so each obtains the same handle independently (the registration
  /// is idempotent on its key). The new communicator postdates the
  /// revocation and is exempt from it.
  Comm shrink_and_continue();

  /// Reports this survivor's repair hook as complete; when every survivor
  /// has called it the trial classifies as REPAIRED instead of RANK_DEAD.
  void mark_repaired();

  // --- typed conveniences ---------------------------------------------------

  /// Allreduce of a single value; registers the temporaries for the call.
  template <typename T>
  T allreduce_value(T value, Op op, Comm comm = kCommWorld,
                    std::source_location loc =
                        std::source_location::current()) {
    T in = value;
    T out{};
    ScopedRegistration keep_in(registry(), &in, sizeof(T));
    ScopedRegistration keep_out(registry(), &out, sizeof(T));
    allreduce(&in, &out, 1, datatype_of<T>(), op, comm, loc);
    return out;
  }

  /// Bcast of a single value from `root`.
  template <typename T>
  T bcast_value(T value, std::int32_t root, Comm comm = kCommWorld,
                std::source_location loc = std::source_location::current()) {
    T slot = value;
    ScopedRegistration keep(registry(), &slot, sizeof(T));
    bcast(&slot, 1, datatype_of<T>(), root, comm, loc);
    return slot;
  }

  // --- internals shared with the collective algorithms ---------------------
  // (public for the free-standing algorithm translation units; applications
  // have no reason to call these.)

  struct Detail;

  /// Sends raw bytes to `dest` (rank within `comm`) under a fully formed
  /// transport tag. The payload's storage travels with the message.
  void send_internal(Comm comm, int dest, std::uint64_t tag,
                     std::vector<std::byte> payload);

  /// Receives raw bytes from `source` (rank within `comm`); blocks until
  /// matched, the watchdog deadline, or world poisoning. The view stays
  /// valid until this rank's next receive, which reuses its storage.
  std::span<const std::byte> recv_internal(Comm comm, int source,
                                           std::uint64_t tag);

  /// Reads `bytes` from an application buffer through the bounds registry,
  /// into recycled payload storage.
  std::vector<std::byte> pack(const void* ptr, std::size_t bytes,
                              const char* what);

  /// A copy of `bytes` in recycled payload storage, to send a buffer the
  /// algorithm keeps using.
  std::vector<std::byte> copy_payload(std::span<const std::byte> bytes);

  /// Writes bytes into an application buffer through the bounds registry.
  void store(void* ptr, std::span<const std::byte> data, const char* what);

  /// Transport tag for collective phase traffic.
  std::uint64_t coll_tag(Comm comm, std::uint32_t seq,
                         std::uint8_t phase) const;

 private:
  void dispatch(CollectiveCall& call, std::source_location loc);
  void dispatch_p2p(P2pCall& call, std::source_location loc);
  /// Site identification shared by the live and the replay p2p paths:
  /// fills site_id/invocation/rank, advancing the invocation counter.
  void fill_p2p_site(P2pCall& call, const std::source_location& loc);
  void run_algorithm(const CollectiveCall& call, std::uint32_t seq);

  // --- snapshot replay (minimpi/snapshot.hpp) ----------------------------
  // While replay_active(), API calls are served from the recording with
  // zero rendezvous; the op at the cut (and everything after) runs live.
  bool replay_active() const noexcept { return replay_next_ < replay_cut_; }
  void replay_collective(CollectiveCall& call);
  void replay_send(const P2pCall& call);
  void replay_recv(const P2pCall& call);
  /// Lock-free poison poll so a mid-replay rank notices teardown promptly.
  void replay_poison_check() const;
  /// The next recorded op, verified to be of `kind` at this site; any
  /// mismatch is a divergence (ReplayError).
  const RecordedOp& replay_expect(RecordedOp::Kind kind, std::uint32_t site_id,
                                  std::uint64_t invocation, const char* what);

  // one implementation per collective family (coll_*.cpp)
  void run_barrier(const CollectiveCall& call, std::uint32_t seq);
  void run_bcast(const CollectiveCall& call, std::uint32_t seq);
  void run_bcast_chain(const CollectiveCall& call, std::uint32_t seq);
  void run_allreduce_reduce_bcast(const CollectiveCall& call,
                                  std::uint32_t seq);
  void run_reduce(const CollectiveCall& call, std::uint32_t seq);
  void run_allreduce(const CollectiveCall& call, std::uint32_t seq);
  void run_scatter(const CollectiveCall& call, std::uint32_t seq);
  void run_gather(const CollectiveCall& call, std::uint32_t seq);
  void run_scatterv(const CollectiveCall& call, std::uint32_t seq);
  void run_gatherv(const CollectiveCall& call, std::uint32_t seq);
  void run_allgather(const CollectiveCall& call, std::uint32_t seq);
  void run_allgatherv(const CollectiveCall& call, std::uint32_t seq);
  void run_alltoall(const CollectiveCall& call, std::uint32_t seq);
  void run_alltoallv(const CollectiveCall& call, std::uint32_t seq);
  void run_reduce_scatter_block(const CollectiveCall& call, std::uint32_t seq);
  void run_scan(const CollectiveCall& call, std::uint32_t seq);

  /// Publishes the pending-op signature for the operation this rank is
  /// entering (op name, comm, seq, root, shadow frame) to the progress
  /// table.
  void publish_op(const char* op, Comm comm, std::uint32_t seq, int root);

  /// Fail-stop / revocation checks shared by every cancellation point:
  /// raises RankKilled when this rank is doomed.
  void check_doom() const;

  /// Delivers messages held back by a MessageDelay fault, in the order
  /// they were held. Runs after each subsequent send and at rank end, so
  /// the delay is bounded by the rank's own program order (deterministic).
  void flush_held();

  std::shared_ptr<WorldState> world_;
  int world_rank_;
  std::function<StackProbe()> stack_probe_;
  /// Per-communicator collective sequence numbers (lockstep across ranks
  /// in fault-free execution; divergence surfaces as unmatched traffic).
  std::map<RawHandle, std::uint32_t> coll_seq_;
  /// Per-(site) invocation counters for call identification.
  std::map<std::uint32_t, std::uint64_t> invocations_;
  /// Per-parent-communicator split counters (comm_split determinism).
  std::map<RawHandle, std::uint32_t> split_seq_;
  /// Recording hook (nullptr outside recording runs). Raw pointer: the
  /// shared_ptr in the state's WorldOptions copy owns it, and that state
  /// outlives every rank.
  PrefixRecorder* recorder_ = nullptr;
  /// This rank's recorded op stream and cut (replay runs only).
  const std::vector<RecordedOp>* replay_ops_ = nullptr;
  std::size_t replay_cut_ = 0;
  std::size_t replay_next_ = 0;
  /// Messages a transport fault held for delayed delivery: (destination
  /// world rank, message). Rank-local; flushed by flush_held().
  std::vector<std::pair<int, Message>> held_;
  /// Storage of the payload recv_internal last returned a view of.
  std::vector<std::byte> inbound_;
};

}  // namespace fastfit::mpi
