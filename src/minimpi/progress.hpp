#pragma once

// Per-rank progress table: the evidence base for deterministic hang
// detection and world autopsies.
//
// Every rank publishes (a) a heartbeat that advances on any forward step
// (collective entry, message send, compute-loop deadline check, wait
// exit) and (b) a pending-operation signature — op name, communicator,
// sequence number, root, awaited peer and transport tag, shadow-stack id
// — whenever it enters a mailbox rendezvous. When the fiber scheduler
// runs out of runnable ranks and no blocked rank's awaited message is
// queued, this table is the deadlock verdict's evidence: sends are
// synchronous on the scheduler's thread, so no message can ever arrive —
// the verdict is deterministic, not a timeout heuristic.
//
// The same table is snapshotted into a WorldAutopsy at first-event time,
// so every non-SUCCESS trial carries per-rank forensics (phase, last
// heartbeat, pending signature, innermost shadow frame) into campaign
// reports and the journal.

#include <cstdint>
#include <string>
#include <vector>

namespace fastfit::mpi {

/// What a rank is doing, as last published by the rank itself.
enum class RankPhase : std::uint8_t {
  Computing,  ///< running application or algorithm code
  Blocked,    ///< parked in a mailbox wait for a specific (source, tag)
  Exited,     ///< rank main returned or unwound
  Dead,       ///< fail-stop fault killed the rank (it will never publish
              ///< again); peers and the verdict treat it like Exited but
              ///< the autopsy distinguishes death from clean exit
};

const char* to_string(RankPhase phase) noexcept;

/// Pending-operation signature published at rendezvous entry.
struct PendingSig {
  const char* op = "";            ///< static op name ("MPI_Bcast", ...)
  std::uint64_t comm = 0;         ///< raw communicator handle in use
  std::uint32_t seq = 0;          ///< per-communicator collective sequence
  int root = -1;                  ///< root parameter (-1 for unrooted)
  int wait_source = -1;           ///< awaited sender, comm-relative
  int wait_source_world = -1;     ///< awaited sender as a world rank
  std::uint64_t wait_tag = 0;     ///< exact transport tag awaited
  std::uint64_t stack_id = 0;     ///< shadow-stack identity at op entry
  std::string frame;              ///< innermost shadow frame at op entry

  /// One-line human form, e.g.
  /// "MPI_Bcast(comm=0x…, seq=3, root=2) awaiting world rank 5".
  std::string describe() const;
};

/// Verdict-side view of one rank.
struct RankSnapshot {
  RankPhase phase = RankPhase::Computing;
  std::uint64_t heartbeat = 0;
  bool has_op = false;  ///< sig fields valid (at least one op published)
  PendingSig sig;
};

/// The table itself: one slot per rank. Ranks publish and the idle handler
/// reads on the world's one thread (minimpi/world.hpp), so slots take no
/// lock.
class ProgressTable {
 public:
  explicit ProgressTable(int nranks);

  int size() const noexcept { return static_cast<int>(slots_.size()); }

  /// Heartbeat-only advance (compute progress, message sends). Publishers
  /// bump *before* delivering so quiescence implies no in-flight sends.
  void bump(int rank);

  /// Entering an operation: signature replaced, phase Computing.
  void publish_op(int rank, PendingSig sig);

  /// Entering a mailbox wait inside the current operation.
  void publish_wait(int rank, int wait_source, int wait_source_world,
                    std::uint64_t wait_tag);

  /// The wait ended (matched, timed out, or aborted): back to Computing.
  void publish_resume(int rank);

  /// Rank main returned or unwound. Never downgrades a Dead slot: a
  /// killed rank still unwinds through the normal exit path,
  /// and the death verdict must survive it.
  void publish_exited(int rank);

  /// Fail-stop death: terminal, peer-visible via snapshot().
  void publish_dead(int rank);

  const RankSnapshot& snapshot(int rank) const {
    return slots_.at(static_cast<std::size_t>(rank));
  }
  std::vector<RankSnapshot> snapshot_all() const { return slots_; }

 private:
  std::vector<RankSnapshot> slots_;
};

/// Per-rank entry of a world autopsy.
struct RankAutopsy {
  int rank = -1;
  RankPhase phase = RankPhase::Computing;
  std::uint64_t heartbeat = 0;
  bool has_op = false;
  PendingSig sig;
};

/// Forensic snapshot of the whole world, captured when the initiating
/// event is recorded (poison time). `deterministic` marks a hang that was
/// proven structurally at quiescence rather than inferred from the
/// watchdog deadline.
struct WorldAutopsy {
  bool deterministic = false;
  std::string verdict;  ///< detector conclusion / event description
  std::vector<RankAutopsy> ranks;

  /// Compact one-line form for journals and messages.
  std::string summary() const;

  /// Multi-line per-rank listing for reports and debugging.
  std::string render() const;
};

/// Snapshots every rank of `table` into an autopsy.
WorldAutopsy build_autopsy(const ProgressTable& table, bool deterministic,
                           std::string verdict);

/// Explains a stable all-blocked snapshot: divergent roots, divergent
/// communicators, mismatched sequence numbers, mismatched operations,
/// peers that already exited, or a plain unmatched rendezvous.
std::string analyze_deadlock(const std::vector<RankSnapshot>& snaps);

}  // namespace fastfit::mpi
