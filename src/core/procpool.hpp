#pragma once

// Process-isolated trial execution: a fork-server worker pool.
//
// The paper's outcome taxonomy includes SEG_FAULT, but an in-process
// trial can only *simulate* it — a genuine signal would kill the whole
// campaign. ProcPool makes real crashes classifiable: the supervisor
// pre-forks one warm fork-server per lane, ships each (point, spec,
// trial) work item over a length-prefixed pipe, and the server forks a
// single-use trial child per trial. The child executes the trial and
// writes its serialized result back; its parent consolidates that result
// with the child's wait4 status + rusage into exactly one reply frame.
//
// Fork at the cut: the process a server forks for a point runs the
// fault-free world up to the point's exact-point trigger. There
// (procpool::hold_at_cut) it becomes the point's *cut holder*: it forks
// one trial child per trial of the point routed to its lane, so every
// child runs only the suffix. The server forwards further work items for
// the same point to the holder and ends it when another point arrives.
//
//   supervisor ──cmd──▶ fork-server ──fork──▶ cut holder ──fork──▶ trial child
//       ▲                  │  ▲                 │  ▲                 │
//       └─────result───────┘  └────report───────┘  └─────report──────┘
//
// A trial whose cut is never reached (no exact-point trigger, no hook,
// or a world that ends first) reports from that first process itself,
// which is then an ordinary from-scratch trial child.
//
// Death taxonomy (docs/process_isolation.md):
//   * trial child killed by SIGSEGV/SIGBUS/SIGFPE/SIGABRT → SignalDeath,
//     a *datum* (the campaign classifies it SEG_FAULT with the signal
//     number and rusage in the forensic field);
//   * a cut holder that dies between trials → a contained error (the
//     campaign's retry guard reruns the trial from a fresh process);
//   * anything wedged past the lease deadline → the whole lane process
//     group (server, holder, child) is SIGKILLed → LeaseExpired (the
//     campaign routes it through the existing retry-with-quarantine
//     guard);
//   * server death / protocol corruption → LaneFailure; the lane is
//     respawned on next use until the respawn budget runs out, after
//     which the pool reports degraded() and the campaign falls back to
//     in-process execution (recorded in CampaignHealth).
//
// The default `thread` isolation mode never constructs a ProcPool, so
// pre-existing behaviour is preserved bit for bit.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "inject/fault_model.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {

/// The --isolation / FASTFIT_ISOLATION knob: where trials execute.
enum class IsolationMode : std::uint8_t {
  Thread,   ///< in-process on the executor's lane threads (default)
  Process,  ///< fork-server workers; real signals become classifiable
};

/// Parses "thread" / "process" (throws ConfigError otherwise).
IsolationMode parse_isolation_mode(const std::string& text);
const char* to_string(IsolationMode mode) noexcept;

namespace procpool {

/// One trial's coordinates on the wire: everything the worker needs to
/// reconstruct the injection deterministically. The per-trial RNG
/// identity is a pure function of (seed, point, trial) via
/// FaultSpec::stream_index, so shipping only the coordinates preserves
/// bit-identical results across isolation modes.
struct WorkItem {
  std::uint32_t site_id = 0;
  int rank = 0;
  std::uint64_t invocation = 0;
  std::uint8_t param = 0;  ///< mpi::Param ordinal
  inject::FaultModelSpec fault;
  std::uint64_t trial = 0;
  /// Per-rank step budget of the trial's world (WorldOptions::step_budget).
  std::vector<std::uint64_t> step_budget;
};

/// What the trial child reports back on success-or-contained-error. A
/// child that dies before writing this is reported by its server via the
/// waitpid status instead.
struct TrialReply {
  bool ok = false;                   ///< false = `error` holds the cause
  inject::Outcome outcome{};         ///< valid when ok
  bool deterministic_hang = false;   ///< valid when ok
  std::string autopsy;               ///< valid when ok
  std::string error;                 ///< valid when !ok
};

/// Runs one trial inside the forked worker child. Must not throw — a
/// contained failure is reported through TrialReply::error.
using TrialFn = std::function<TrialReply(const WorkItem&)>;

/// Fork at the cut. Call it inside a TrialFn, at the end of the trial's
/// fault-free prefix (the injector's exact-point trigger, before the fault
/// manifests). In the first process the server forked for a point, it
/// turns that process into the point's cut holder: the holder forks one
/// trial child for `trial` and one for every further trial of the point
/// the server routes to it, and never returns itself. In each child it
/// returns the trial that child runs. Anywhere else (a trial child, a
/// process outside the pool) it returns `trial` unchanged.
std::uint64_t hold_at_cut(std::uint64_t trial);

/// Runs once inside each freshly forked server (e.g. to disable the
/// telemetry recorder, whose mutexes may have been mid-lock in another
/// thread of the supervisor at fork time).
using ChildInit = std::function<void()>;

}  // namespace procpool

/// Supervisor-side handle to the fork-server pool. Thread-safe: run() may
/// be called concurrently from every scheduler worker; each call owns one
/// lane for its duration.
class ProcPool {
 public:
  struct Options {
    std::size_t lanes = 1;
    /// How many lane *respawns* (after a lease kill or server death) are
    /// allowed before the pool declares itself degraded. The initial
    /// per-lane spawns are free.
    std::size_t respawn_budget = 4;
    procpool::ChildInit child_init;
  };

  struct Result {
    enum class Kind : std::uint8_t {
      Completed,     ///< trial ran; `reply` holds outcome or contained error
      SignalDeath,   ///< child killed by a signal: `signal` + rusage
      LeaseExpired,  ///< lane SIGKILLed for blowing the lease deadline
      LaneFailure,   ///< server died / protocol error / pool degraded
    };
    Kind kind = Kind::LaneFailure;
    /// The trial ran in a child its point's cut holder forked, so it
    /// skipped the fault-free prefix.
    bool from_cut = false;
    procpool::TrialReply reply;  ///< Completed
    int signal = 0;              ///< SignalDeath
    std::uint64_t user_us = 0;   ///< SignalDeath: rusage user time
    std::uint64_t sys_us = 0;    ///< SignalDeath: rusage system time
    std::uint64_t maxrss_kb = 0; ///< SignalDeath: rusage peak RSS
    std::string error;           ///< LaneFailure / LeaseExpired detail
  };

  struct Stats {
    std::uint64_t servers_spawned = 0;  ///< initial spawns + respawns
    std::uint64_t respawns = 0;         ///< spawns after a lane loss
    std::uint64_t trials_dispatched = 0;
    std::uint64_t signal_deaths = 0;
    std::uint64_t lease_kills = 0;
    std::uint64_t lane_failures = 0;
    std::uint64_t cut_forks = 0;  ///< trials a cut holder's child ran
  };

  /// Forks all lane servers eagerly. Call from as quiet a moment as
  /// possible (before the trial pool spawns threads): every later worker
  /// child inherits the supervisor's memory image as of this fork.
  /// Throws InternalError when no lane can be spawned at all.
  ProcPool(Options options, procpool::TrialFn fn);
  ~ProcPool();

  ProcPool(const ProcPool&) = delete;
  ProcPool& operator=(const ProcPool&) = delete;

  /// Dispatches one trial to a free lane (one whose server already holds
  /// the trial's cut, if any is free) and waits for its consolidated
  /// reply, up to `lease`. On lease expiry the lane's process group is
  /// SIGKILLed. Never throws for worker-side conditions — every failure
  /// mode is a Result kind the campaign maps onto its retry ladder.
  Result run(const procpool::WorkItem& item, std::chrono::milliseconds lease);

  /// True once the respawn budget is exhausted: callers should stop
  /// dispatching and fall back to in-process execution.
  bool degraded() const noexcept;

  std::size_t lanes() const noexcept { return lanes_.size(); }
  Stats stats() const;

  /// Live fork-server pids (0 for lanes awaiting respawn). Tests use this
  /// to SIGKILL a worker mid-trial.
  std::vector<int> server_pids() const;

 private:
  struct Lane {
    int pid = 0;         ///< server pid (0 = dead, respawn on next use)
    int cmd_fd = -1;     ///< supervisor → server work items
    int result_fd = -1;  ///< server → supervisor consolidated replies
    std::uint64_t seq = 0;
    /// The last item dispatched to this lane: its server may hold that
    /// point's cut.
    std::optional<procpool::WorkItem> point;
    std::uint64_t last_use = 0;  ///< dispatch ordinal of `point`
  };

  bool spawn_locked(Lane& lane, bool is_respawn);
  void kill_lane_locked(Lane& lane);
  /// Waits for a free lane, preferring one whose server may already hold
  /// `item`'s cut, then the least recently used.
  std::size_t acquire_lane(const procpool::WorkItem& item);
  void release_lane(std::size_t index);

  Options options_;
  procpool::TrialFn fn_;
  mutable std::mutex mutex_;
  std::condition_variable lane_available_;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> free_;
  std::size_t respawns_used_ = 0;
  std::uint64_t uses_ = 0;  ///< dispatches so far (Lane::last_use clock)
  bool degraded_ = false;
  Stats stats_;
};

/// The journal's forensic line for a signal death: signal name + number
/// and the child's rusage, e.g.
/// "worker killed by SIGSEGV (signal 11); rusage: user=3ms sys=1ms
/// maxrss=2048KiB".
std::string describe_worker_death(int signo, std::uint64_t user_us,
                                  std::uint64_t sys_us,
                                  std::uint64_t maxrss_kb);

}  // namespace fastfit::core
