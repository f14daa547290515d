#include "minimpi/world.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <stdexcept>
#include <utility>

#include "minimpi/fiber.hpp"
#include "minimpi/mpi.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::mpi {

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::AppDetected: return "APP_DETECTED";
    case EventType::MpiErr: return "MPI_ERR";
    case EventType::SegFault: return "SEG_FAULT";
    case EventType::Timeout: return "INF_LOOP";
    case EventType::RankDead: return "RANK_DEAD";
  }
  return "UNKNOWN";
}

WorldState::WorldState(const WorldOptions& options)
    : options_(options),
      progress_(options.nranks >= 1 ? options.nranks : 1) {
  if (options_.nranks < 1) {
    throw ConfigError("World: nranks must be at least 1");
  }
  if (!options_.step_budget.empty() &&
      static_cast<int>(options_.step_budget.size()) != options_.nranks) {
    throw ConfigError("World: step budget rank count mismatch");
  }
  steps_.assign(static_cast<std::size_t>(options_.nranks), 0);
  mailboxes_.reserve(static_cast<std::size_t>(options_.nranks));
  registries_.reserve(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(poison_));
    registries_.push_back(std::make_unique<MemoryRegistry>());
  }
  doomed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(options_.nranks));
  dead_.assign(static_cast<std::size_t>(options_.nranks), false);
  for (int r = 0; r < options_.nranks; ++r) {
    doomed_[static_cast<std::size_t>(r)].store(false,
                                               std::memory_order_relaxed);
    mailboxes_[static_cast<std::size_t>(r)]->set_doom(
        r, &doomed_[static_cast<std::size_t>(r)]);
  }
  std::vector<int> everyone(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    everyone[static_cast<std::size_t>(r)] = r;
  }
  comms_.push_back(CommEntry{everyone, everyone});
  comm_keys_.emplace("world", 0);
}

Mailbox& WorldState::mailbox(int world_rank) {
  return *mailboxes_.at(static_cast<std::size_t>(world_rank));
}

MemoryRegistry& WorldState::registry(int world_rank) {
  return *registries_.at(static_cast<std::size_t>(world_rank));
}

bool WorldState::poisoned() {
  return poison_.flag.load(std::memory_order_acquire);
}

void WorldState::poison_and_wake() {
  poison_.poison();
  for (auto& mailbox : mailboxes_) mailbox->wake();
}

void WorldState::report_event(int rank, const FaultEvent& event) {
  capture_event(rank, event, std::nullopt);
}

void WorldState::kill_rank(int world_rank) {
  doomed_[static_cast<std::size_t>(world_rank)].store(
      true, std::memory_order_release);
  // Wake the victim if it is parked in a mailbox wait; receive() rechecks
  // the doom flag on wake and raises RankKilled on the victim's fiber. From
  // another thread the wake travels through the scheduler's inbox.
  mailbox(world_rank).wake();
}

std::vector<int> WorldState::alive_members() const {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    if (!rank_dead(r)) alive.push_back(r);
  }
  return alive;
}

bool WorldState::comm_revoked(Comm comm) const noexcept {
  if (!poison_.revoked_flag.load(std::memory_order_acquire)) return false;
  return handle_index(raw(comm)) < revoked_comm_limit_;
}

void WorldState::report_rank_death(int rank, const RankKilled& event) {
  // Publish the death before capturing so the autopsy and any peer
  // analysis ("blocked on dead peer") see the Dead phase.
  progress_.publish_dead(rank);
  if (!dead_[static_cast<std::size_t>(rank)]) {
    dead_[static_cast<std::size_t>(rank)] = true;
    ++dead_count_;
  }

  if (!options_.repair) {
    capture_event(rank, event, std::nullopt);
    return;
  }
  // Repair mode: record the initiating death without poisoning, then
  // revoke every communicator that existed before this instant. The
  // shrunken communicator survivors build afterwards gets a larger table
  // index and is exempt.
  capture_event(rank, event, std::nullopt, /*poison=*/false);
  revoked_comm_limit_ = comms_.size();
  poison_.revoke();
  for (auto& mailbox : mailboxes_) mailbox->wake();
}

void WorldState::capture_event(int rank, const FaultEvent& event,
                               std::optional<WorldAutopsy> autopsy,
                               bool poison) {
  if (!event_) {
    CapturedEvent captured;
    captured.rank = rank;
    captured.message = event.what();
    if (const auto* mpi_error = dynamic_cast<const MpiError*>(&event)) {
      captured.type = EventType::MpiErr;
      captured.mpi_code = mpi_error->code();
    } else if (dynamic_cast<const SimSegFault*>(&event) != nullptr) {
      captured.type = EventType::SegFault;
    } else if (dynamic_cast<const AppError*>(&event) != nullptr) {
      captured.type = EventType::AppDetected;
    } else if (dynamic_cast<const SimTimeout*>(&event) != nullptr) {
      captured.type = EventType::Timeout;
    } else if (dynamic_cast<const RankKilled*>(&event) != nullptr) {
      captured.type = EventType::RankDead;
    } else {
      // WorldAborted never initiates; anything else is a library bug.
      throw InternalError(std::string("report_event: unexpected event: ") +
                          event.what());
    }
    if (auto& rec = telemetry::Recorder::instance();
        rec.enabled() && captured.type == EventType::Timeout) {
      // The two hang verdicts: a deadlock proven at quiescence, or a rank
      // that exhausted its step budget (livelock).
      if (autopsy && autopsy->deterministic) {
        rec.instant("deadlock-proven", telemetry::Track::Monitor, 0,
                    "rank=" + std::to_string(rank));
        static auto& proven =
            rec.counter("fastfit_deadlocks_proven_total",
                        "Structurally proven deadlocks");
        proven.add();
      } else {
        rec.instant("step-budget-exhausted", telemetry::Track::Monitor, 0,
                    "rank=" + std::to_string(rank));
        static auto& exhausted =
            rec.counter("fastfit_step_budgets_exhausted_total",
                        "Ranks stopped at their step budget (livelock)");
        exhausted.add();
      }
    }
    event_ = std::move(captured);
    // Attach forensics at poison time: either the deadlock verdict's
    // snapshot, or a live snapshot of the progress table as-is.
    autopsy_ = autopsy ? std::move(autopsy)
                       : build_autopsy(progress_, false, event.what());
  }
  if (poison) poison_and_wake();
}

Comm WorldState::register_comm(const std::string& key,
                               std::vector<int> members) {
  if (members.empty()) {
    throw InternalError("register_comm: empty member list");
  }
  if (auto it = comm_keys_.find(key); it != comm_keys_.end()) {
    const auto& existing = comms_[it->second].members;
    if (existing != members) {
      // Two ranks derived the same key for different groups: under a fault
      // this is a communicator-construction inconsistency a real MPI would
      // surface as a communicator error.
      throw MpiError(MpiErrc::InvalidComm,
                     "inconsistent group for communicator key '" + key + "'");
    }
    return make_comm(it->second);
  }
  const auto index = static_cast<RawHandle>(comms_.size());
  if (index > kIndexMask) {
    throw InternalError("register_comm: communicator table exhausted");
  }
  std::vector<int> rank_of(static_cast<std::size_t>(options_.nranks), -1);
  for (std::size_t i = members.size(); i-- > 0;) {
    // Backwards, so a repeated member maps to its first position.
    const int world_rank = members[i];
    if (world_rank >= 0 && world_rank < options_.nranks) {
      rank_of[static_cast<std::size_t>(world_rank)] = static_cast<int>(i);
    }
  }
  comms_.push_back(CommEntry{std::move(members), std::move(rank_of)});
  comm_keys_.emplace(key, index);
  return make_comm(index);
}

const WorldState::CommEntry& WorldState::comm_entry(Comm comm) const {
  const RawHandle h = raw(comm);
  if (!has_magic(h, kCommMagic) || handle_index(h) >= comms_.size()) {
    throw MpiError(MpiErrc::InvalidComm, "handle 0x" + std::to_string(h));
  }
  return comms_[handle_index(h)];
}

const std::vector<int>& WorldState::group_of(Comm comm) const {
  return comm_entry(comm).members;
}

int WorldState::comm_rank_of(Comm comm, int world_rank) const {
  const auto& entry = comm_entry(comm);
  if (world_rank < 0 || world_rank >= options_.nranks) return -1;
  return entry.rank_of[static_cast<std::size_t>(world_rank)];
}

std::vector<std::byte> WorldState::take_payload() {
  if (spare_payloads_.empty()) return {};
  std::vector<std::byte> storage = std::move(spare_payloads_.back());
  spare_payloads_.pop_back();
  return storage;
}

void WorldState::recycle_payload(std::vector<std::byte> storage) {
  // Small buffers only, and a bounded number: the pool saves allocations
  // on the chatty small-message paths without pinning large transfers.
  constexpr std::size_t kMaxSpareBytes = 4096;
  constexpr std::size_t kMaxSpares = 1024;
  if (storage.capacity() == 0 || storage.capacity() > kMaxSpareBytes ||
      spare_payloads_.size() >= kMaxSpares) {
    return;
  }
  storage.clear();
  spare_payloads_.push_back(std::move(storage));
}

void WorldState::declare_deadlock(const std::vector<RankSnapshot>& snaps) {
  const std::string verdict = analyze_deadlock(snaps);

  WorldAutopsy autopsy;
  autopsy.deterministic = true;
  autopsy.verdict = verdict;
  autopsy.ranks.reserve(snaps.size());
  int reporter = -1;
  for (int r = 0; r < static_cast<int>(snaps.size()); ++r) {
    const auto& snap = snaps[static_cast<std::size_t>(r)];
    RankAutopsy entry;
    entry.rank = r;
    entry.phase = snap.phase;
    entry.heartbeat = snap.heartbeat;
    entry.has_op = snap.has_op;
    entry.sig = snap.sig;
    autopsy.ranks.push_back(std::move(entry));
    if (reporter < 0 && snap.phase == RankPhase::Blocked) reporter = r;
  }

  std::string message = "deterministic deadlock: " + verdict;
  if (reporter >= 0) {
    const auto& snap = snaps[static_cast<std::size_t>(reporter)];
    if (snap.has_op) {
      message += "; rank " + std::to_string(reporter) + " blocked in " +
                 snap.sig.describe();
    }
  }
  capture_event(reporter >= 0 ? reporter : 0, SimTimeout(message),
                std::move(autopsy));
}

void WorldState::fiber_idle(FiberScheduler& sched) {
  // A foreign kill_rank, poison wake or delivery may be waiting in the
  // inbox; apply it before judging quiescence.
  sched.drain_inbox();
  if (sched.has_ready()) return;

  // Wake anything that can still make progress. A doomed or poisoned rank
  // must observe its fate at the next cancellation point, and a blocked
  // rank whose awaited (source, tag) is already queued is about to match
  // (deliveries wake the owner eagerly; this scan is the idle-time
  // backstop).
  bool woke = false;
  const auto blocked = sched.blocked();
  for (int r : blocked) {
    bool wake =
        rank_doomed(r) || poison_.flag.load(std::memory_order_acquire);
    if (!wake) {
      const auto& snap = progress_.snapshot(r);
      wake = snap.has_op && snap.sig.wait_source >= 0 &&
             mailbox(r).has_match(snap.sig.wait_source, snap.sig.wait_tag);
    }
    if (wake) {
      sched.make_ready(r);
      woke = true;
    }
  }
  if (woke || blocked.empty()) return;

  // Quiescence: no runnable fiber, no queued message any blocked fiber
  // awaits, and provably no send in flight (sends are synchronous on this
  // very thread). This IS the structural deadlock, in every world: a
  // single rank awaiting itself, and the survivors of a revocation, which
  // park only in non-revocable waits (the revocation already woke every
  // revocable one).
  declare_deadlock(progress_.snapshot_all());
  // capture_event poisoned; its wake storm marked the fibers ready.
}

World::World(WorldOptions options)
    : state_(std::make_shared<WorldState>(options)) {}

World::~World() = default;

void World::set_tools(ToolHooks* tools) noexcept { state_->tools_ = tools; }

WorldResult World::run(const std::function<void(Mpi&)>& rank_main) {
  if (ran_) throw InternalError("World::run: a World is single-use");
  ran_ = true;

  const auto state = state_;
  const int nranks = state->options_.nranks;

  if (const auto& replay = state->options_.replay) {
    if (static_cast<int>(replay->cut.size()) != nranks) {
      throw ConfigError("World::run: snapshot rank count mismatch");
    }
    // Messages in flight across the snapshot cut (sent in the prefix,
    // received in the suffix) are seeded before any rank launches, so the
    // suffix finds them already queued, exactly as at the cut.
    for (const auto& pre : replay->preseed) {
      Message message;
      message.source = pre.source_comm;
      message.tag = pre.transport_tag;
      if (pre.payload) {
        message.payload.assign(pre.payload->begin(), pre.payload->end());
      }
      state->mailbox(pre.dest_world).deliver(std::move(message));
    }
  }

  // The scheduler lives on this stack frame and a fiber can never outlive
  // it: every MiniMPI wait is a cancellation point, so a resumed fiber
  // always unwinds, and the scheduler does not return until all of them
  // have. A world adds no OS thread.
  FiberScheduler sched(nranks);
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(&sched, r);
  }

  const auto body = [&state, &rank_main](int r) {
    // One span per rank lifetime on the rank's trace lane. No per-rank
    // bind_thread here: all fibers share the scheduler's thread, and the
    // track/id pair on the span already attributes it.
    telemetry::ScopedSpan rank_span("rank-main", telemetry::Track::Rank, r);
    Mpi mpi(state, r);
    try {
      rank_main(mpi);
    } catch (const WorldAborted&) {
      // Subordinate teardown; the initiating rank already reported.
    } catch (const RankKilled& event) {
      state->report_rank_death(r, event);
    } catch (const RankRevoked&) {
      // A survivor that could not (or chose not to) repair: subordinate
      // to the already-captured RankDead event, like WorldAborted.
    } catch (const FaultEvent& event) {
      state->report_event(r, event);
    } catch (const std::bad_alloc&) {
      state->report_event(
          r, SimSegFault(0, 0, "allocation failure (OOM kill)"));
    } catch (const std::length_error&) {
      state->report_event(r, SimSegFault(0, 0, "absurd allocation request"));
    } catch (...) {
      if (!state->internal_error_) {
        state->internal_error_ = std::current_exception();
      }
      state->poison_and_wake();
    }
    state->steps_[static_cast<std::size_t>(r)] = mpi.steps();
    state->progress_.publish_exited(r);
  };

  sched.run(body, [&state, &sched] { state->fiber_idle(sched); });

  // Detach the wake routing before the scheduler leaves this frame: a late
  // cross-thread kill_rank or delivery then finds no scheduler, never a
  // dangling one. Tasks posted before the detach still run here, so a
  // foreign delivery is never lost from the transport audit.
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(nullptr, -1);
  }
  sched.drain_inbox();

  WorldResult result;

  if (state->internal_error_) std::rethrow_exception(state->internal_error_);
  for (const auto& registry : state->registries_) {
    result.leaked_regions += registry->region_count();
  }
  for (const auto& mailbox : state->mailboxes_) {
    result.undelivered_messages += mailbox->pending();
  }

  const int dead = state->dead_count_;
  result.rank_died = dead > 0;
  result.repaired = state->options_.repair && dead > 0 &&
                    state->repaired_count_ == nranks - dead;
  result.event = state->event_;
  result.autopsy = state->autopsy_;
  result.steps = state->steps_;
  return result;
}

}  // namespace fastfit::mpi
