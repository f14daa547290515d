#pragma once

// Error hierarchy for the FastFIT reproduction.
//
// Every failure mode a fault-injection trial can provoke is modelled as an
// exception derived from FaultEvent, so a trial can run millions of times
// in-process without ever taking the host down: a "segfault" is a
// bounds-registry violation, a "hang" is a proven deadlock or an exhausted
// step budget, an "MPI abort" is a validation failure. The outcome
// classifier (inject/outcome.hpp) maps these onto the paper's Table I
// response taxonomy.

#include <stdexcept>
#include <string>

namespace fastfit {

/// Root of all library errors (configuration, usage, internal invariants).
class FastFitError : public std::runtime_error {
 public:
  explicit FastFitError(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user configuration (bad env var, out-of-range parameter, ...).
class ConfigError : public FastFitError {
 public:
  explicit ConfigError(const std::string& what) : FastFitError(what) {}
};

/// Broken internal invariant; indicates a bug in this library, not a fault.
class InternalError : public FastFitError {
 public:
  explicit InternalError(const std::string& what) : FastFitError(what) {}
};

// ---------------------------------------------------------------------------
// Fault events: the failure modes a corrupted collective can provoke.
// ---------------------------------------------------------------------------

/// Base class for every failure a rank can experience during a trial.
class FaultEvent : public FastFitError {
 public:
  explicit FaultEvent(const std::string& what) : FastFitError(what) {}
};

/// MPI error codes reported by MiniMPI validation, mirroring the classes a
/// production MPI implementation raises for corrupted call parameters.
enum class MpiErrc {
  InvalidComm,
  InvalidDatatype,
  InvalidOp,
  InvalidCount,
  InvalidRoot,
  InvalidBuffer,
  InvalidTag,
  InvalidRank,
  TypeMismatch,    ///< participating ranks disagree on datatype signature
  CountMismatch,   ///< participating ranks disagree on reduction length
  Truncate,        ///< receive buffer too small for the incoming message
  Internal,
};

/// Returns the MPI-style name for an error code (e.g. "MPI_ERR_COMM").
const char* to_string(MpiErrc code) noexcept;

/// The MPI environment detected an invalid argument and aborted the job
/// (paper Table I: MPI_ERR).
class MpiError : public FaultEvent {
 public:
  MpiError(MpiErrc code, const std::string& detail)
      : FaultEvent(std::string(to_string(code)) + ": " + detail),
        code_(code) {}

  MpiErrc code() const noexcept { return code_; }

 private:
  MpiErrc code_;
};

/// A memory access left every registered buffer region: the simulated
/// equivalent of a segmentation fault (paper Table I: SEG_FAULT).
class SimSegFault : public FaultEvent {
 public:
  SimSegFault(std::uintptr_t addr, std::size_t len, const std::string& detail)
      : FaultEvent("SIGSEGV(sim): " + detail), addr_(addr), len_(len) {}

  std::uintptr_t address() const noexcept { return addr_; }
  std::size_t length() const noexcept { return len_; }

 private:
  std::uintptr_t addr_;
  std::size_t len_;
};

/// The application's own error-handling code detected an inconsistency and
/// aborted (paper Table I: APP_DETECTED).
class AppError : public FaultEvent {
 public:
  explicit AppError(const std::string& what) : FaultEvent(what) {}
};

/// The job would hang until killed (paper Table I: INF_LOOP): the world
/// proved a deadlock at quiescence, or a rank exhausted its step budget.
class SimTimeout : public FaultEvent {
 public:
  explicit SimTimeout(const std::string& what) : FaultEvent(what) {}
};

/// This rank was torn down because *another* rank failed first. Always
/// subordinate to the initiating event during outcome aggregation.
class WorldAborted : public FaultEvent {
 public:
  explicit WorldAborted(const std::string& what) : FaultEvent(what) {}
};

/// A fail-stop fault killed this rank mid-run: the rank stops executing
/// immediately, as if its process died. Peers observe the death through
/// the progress table; with repair disabled the world aborts (outcome
/// RANK_DEAD), with repair enabled survivors get RankRevoked instead.
class RankKilled : public FaultEvent {
 public:
  RankKilled(int rank, const std::string& what)
      : FaultEvent(what), rank_(rank) {}

  int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

/// ULFM-style revocation notice delivered to *surviving* ranks after a
/// fail-stop when repair mode is on: any operation on a pre-death
/// communicator raises this, and a workload's repair hook may catch it,
/// call Mpi::shrink_and_continue(), and resume on the shrunken world.
class RankRevoked : public FaultEvent {
 public:
  explicit RankRevoked(const std::string& what) : FaultEvent(what) {}
};

}  // namespace fastfit
