#include "minimpi/mpi.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>

#include "minimpi/validate.hpp"
#include "support/rng.hpp"

namespace fastfit::mpi {
namespace {

// Transport tag layout (64 bits):
//   [63]     space: 0 = collective phase traffic, 1 = user point-to-point
//   [62:43]  communicator index (20 bits)
//   [42:11]  collective sequence number (32 bits)   } collective space
//   [10:3]   algorithm phase (8 bits)               }
//   [31:0]   user tag                               } p2p space
constexpr std::uint64_t kP2pSpace = 1ULL << 63;

std::uint64_t p2p_tag(Comm comm, std::int32_t user_tag) {
  return kP2pSpace |
         (static_cast<std::uint64_t>(handle_index(raw(comm))) << 43) |
         static_cast<std::uint32_t>(user_tag);
}

// Call-site id: FNV-1a of the key text "<file>:<line>:<kind>" for a
// collective, "<file>:<line>:p2p:<kind>" for a point-to-point call. The key
// is hashed piecewise, without building it: the ids are stored in
// recordings, journals and golden fixtures, so its bytes must not change.
std::uint32_t site_hash(const std::source_location& loc,
                        std::string_view space, int kind) {
  char tail[48];
  char* p = tail;
  *p++ = ':';
  p = std::to_chars(p, tail + sizeof tail, loc.line()).ptr;
  *p++ = ':';
  p = std::copy(space.begin(), space.end(), p);
  p = std::to_chars(p, tail + sizeof tail, kind).ptr;
  return static_cast<std::uint32_t>(fnv1a(
      std::string_view(tail, static_cast<std::size_t>(p - tail)),
      fnv1a(loc.file_name())));
}

// Restores a rank's progress phase to Computing when a mailbox wait ends,
// however it ends (matched, timed out, aborted, truncated).
class WaitScope {
 public:
  WaitScope(ProgressTable& table, int rank) : table_(&table), rank_(rank) {}
  ~WaitScope() { table_->publish_resume(rank_); }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  ProgressTable* table_;
  int rank_;
};

}  // namespace

Mpi::Mpi(std::shared_ptr<WorldState> state, int world_rank)
    : world_(std::move(state)), world_rank_(world_rank) {
  const WorldOptions& options = world_->options();
  recorder_ = options.recorder.get();
  if (options.replay) {
    replay_ops_ =
        &options.replay->recording->ops[static_cast<std::size_t>(world_rank_)];
    replay_cut_ = options.replay->cut[static_cast<std::size_t>(world_rank_)];
  }
}

Mpi::~Mpi() { flush_held(); }

void Mpi::check_doom() const {
  if (world_->rank_doomed(world_rank_)) {
    throw RankKilled(world_rank_, "rank " + std::to_string(world_rank_) +
                                      ": fail-stop fault (rank death)");
  }
}

void Mpi::flush_held() {
  if (held_.empty()) return;
  auto held = std::move(held_);
  held_.clear();
  for (auto& [dest_world, message] : held) {
    // Same bump-before-deliver discipline as a live send: the late
    // delivery must invalidate any deadlock snapshot it races with.
    world_->progress().bump(world_rank_);
    world_->mailbox(dest_world).deliver(std::move(message));
  }
}

Comm Mpi::shrink_and_continue() {
  if (!world_->options().repair) {
    throw InternalError("shrink_and_continue: repair mode is off");
  }
  check_doom();
  const auto alive = world_->alive_members();
  if (std::find(alive.begin(), alive.end(), world_rank_) == alive.end()) {
    throw RankKilled(world_rank_, "rank " + std::to_string(world_rank_) +
                                      ": dead rank cannot repair");
  }
  // Keyed by how many ranks died so far: every survivor of the same
  // failure derives the same key and member list, with no rendezvous.
  const auto ndead = world_->size() - static_cast<int>(alive.size());
  return world_->register_comm("shrink:" + std::to_string(ndead), alive);
}

void Mpi::mark_repaired() { world_->mark_repaired(); }

// --- snapshot replay --------------------------------------------------------

void Mpi::replay_poison_check() const {
  if (world_->poison().flag.load(std::memory_order_acquire)) {
    throw WorldAborted("rank " + std::to_string(world_rank_) +
                       ": prefix replay interrupted by world teardown");
  }
}

const RecordedOp& Mpi::replay_expect(RecordedOp::Kind kind,
                                     std::uint32_t site_id,
                                     std::uint64_t invocation,
                                     const char* what) {
  const RecordedOp& op = (*replay_ops_)[replay_next_];
  if (op.kind != kind || op.site_id != site_id ||
      op.invocation != invocation) {
    std::ostringstream msg;
    msg << "rank " << world_rank_ << " op " << replay_next_ << ": live "
        << what << " site=" << site_id << " inv=" << invocation
        << " does not match recorded kind=" << static_cast<int>(op.kind)
        << " site=" << op.site_id << " inv=" << op.invocation << " (line "
        << op.site_line << ")";
    throw ReplayError(msg.str());
  }
  return op;
}

void Mpi::replay_collective(CollectiveCall& call) {
  replay_poison_check();
  const RecordedOp& op = replay_expect(RecordedOp::Kind::Collective,
                                       call.site_id, call.invocation,
                                       to_string(call.kind));
  if (op.coll != call.kind || op.comm != raw(call.comm) ||
      op.self_comm != call.rank) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": collective shape diverged from the recording at " +
                      std::string(to_string(call.kind)));
  }
  // The sequence counter advances exactly as live execution would, so the
  // op at the cut produces bit-identical transport tags.
  coll_seq_[raw(call.comm)]++;
  const int comm_size = static_cast<int>(world_->group_of(call.comm).size());
  const auto spans = collect_write_spans(call, comm_size);
  if (spans.size() != op.writes.size()) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": write-span shape diverged from the recording");
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& chunk = op.writes[i];
    if (!chunk || chunk->size() != spans[i].bytes) {
      throw ReplayError("rank " + std::to_string(world_rank_) +
                        ": write-span size diverged from the recording");
    }
    try {
      store(spans[i].ptr, *chunk, "collective output (replay)");
    } catch (const FaultEvent& event) {
      // A bounds failure here means the replayed application allocated
      // differently than the recording run — a divergence, not a trial
      // outcome.
      throw ReplayError(std::string("store failed during replay: ") +
                        event.what());
    }
  }
  ++replay_next_;
}

void Mpi::replay_send(const P2pCall& call) {
  replay_poison_check();
  const RecordedOp& op =
      replay_expect(RecordedOp::Kind::Send, call.site_id, call.invocation,
                    "send");
  if (op.self_comm != call.rank || op.peer != call.peer ||
      op.transport_tag != p2p_tag(call.comm, call.tag)) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": send envelope diverged from the recording");
  }
  // The message itself is dropped: its receipt (prefix) was recorded, or
  // it is pre-seeded into the destination mailbox (in flight across the
  // cut). Verify the payload so silent divergence cannot propagate.
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  // A raw pointer, not a shared_ptr copy: the recording is shared by every
  // lane's trials, and refcount traffic on it would bounce between cores.
  const auto* chunk = op.writes.empty() ? nullptr : op.writes.front().get();
  if (!chunk || chunk->size() != bytes) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": send payload size diverged from the recording");
  }
  try {
    registry().check(call.buffer, bytes, "send (replay)");
  } catch (const FaultEvent& event) {
    throw ReplayError(std::string("pack failed during replay: ") +
                      event.what());
  }
  if (bytes > 0 &&
      std::memcmp(call.buffer, chunk->data(), bytes) != 0) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": send payload bytes diverged from the recording");
  }
  ++replay_next_;
}

void Mpi::replay_recv(const P2pCall& call) {
  replay_poison_check();
  const RecordedOp& op =
      replay_expect(RecordedOp::Kind::Recv, call.site_id, call.invocation,
                    "recv");
  if (op.self_comm != call.rank || op.peer != call.peer ||
      op.transport_tag != p2p_tag(call.comm, call.tag)) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": recv envelope diverged from the recording");
  }
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  const auto* chunk = op.writes.empty() ? nullptr : op.writes.front().get();
  if (!chunk || chunk->size() > bytes) {
    throw ReplayError("rank " + std::to_string(world_rank_) +
                      ": recv payload size diverged from the recording");
  }
  try {
    store(call.buffer, *chunk, "recv (replay)");
  } catch (const FaultEvent& event) {
    throw ReplayError(std::string("store failed during replay: ") +
                      event.what());
  }
  ++replay_next_;
}

int Mpi::rank(Comm comm) const {
  const int r = world_->comm_rank_of(comm, world_rank_);
  if (r < 0) {
    throw MpiError(MpiErrc::InvalidComm, "caller is not in the communicator");
  }
  return r;
}

int Mpi::size(Comm comm) const {
  return static_cast<int>(world_->group_of(comm).size());
}

void Mpi::check_deadline() {
  // The heartbeat records that this rank is alive in a compute loop;
  // genuine livelock never reaches quiescence, so it falls through to the
  // watchdog below.
  world_->progress().bump(world_rank_);
  check_doom();
  if (world_->poisoned()) {
    throw WorldAborted("rank " + std::to_string(world_rank_) +
                       ": compute loop interrupted by world teardown");
  }
  if (std::chrono::steady_clock::now() > world_->deadline()) {
    throw SimTimeout("rank " + std::to_string(world_rank_) +
                     ": compute loop exceeded the watchdog (job hang)");
  }
}

void Mpi::publish_op(const char* op, Comm comm, std::uint32_t seq, int root) {
  PendingSig sig;
  sig.op = op;
  sig.comm = raw(comm);
  sig.seq = seq;
  sig.root = root;
  if (stack_probe_) {
    StackProbe probe = stack_probe_();
    sig.stack_id = probe.stack_id;
    sig.frame = std::move(probe.frame);
  }
  world_->progress().publish_op(world_rank_, std::move(sig));
}

std::uint64_t Mpi::coll_tag(Comm comm, std::uint32_t seq,
                            std::uint8_t phase) const {
  return (static_cast<std::uint64_t>(handle_index(raw(comm))) << 43) |
         (static_cast<std::uint64_t>(seq) << 11) |
         (static_cast<std::uint64_t>(phase) << 3);
}

void Mpi::send_internal(Comm comm, int dest, std::uint64_t tag,
                        std::vector<std::byte> payload) {
  if (world_->poisoned()) {
    throw WorldAborted("send interrupted by world teardown");
  }
  check_doom();
  if (world_->comm_revoked(comm)) {
    throw RankRevoked("rank " + std::to_string(world_rank_) +
                      ": send on revoked communicator");
  }
  const auto& members = world_->group_of(comm);
  if (dest < 0 || dest >= static_cast<int>(members.size())) {
    throw MpiError(MpiErrc::InvalidRank,
                   "destination rank " + std::to_string(dest) +
                       " outside communicator of size " +
                       std::to_string(members.size()));
  }
  const int dest_world = members[static_cast<std::size_t>(dest)];
  Message message;
  message.source = world_->comm_rank_of(comm, world_rank_);
  message.tag = tag;
  message.payload = std::move(payload);
  // Transport interposition: message-fault models corrupt the payload in
  // place, drop the message, or hold it back for late delivery.
  if (ToolHooks* tools = world_->tools()) {
    switch (tools->on_transport_send(world_rank_, dest_world, tag,
                                     message.payload)) {
      case SendAction::Deliver:
        break;
      case SendAction::Drop:
        // The send "happened" from this rank's point of view; the bump
        // keeps the heartbeat discipline even though nothing lands.
        world_->progress().bump(world_rank_);
        flush_held();
        return;
      case SendAction::Hold:
        world_->progress().bump(world_rank_);
        held_.emplace_back(dest_world, std::move(message));
        return;
    }
  }
  // Heartbeat strictly before the deliver, so every send shows as
  // forward progress in the progress table and its autopsies.
  world_->progress().bump(world_rank_);
  world_->mailbox(dest_world).deliver(std::move(message));
  // A message held by an earlier MessageDelay fault is released one send
  // later in this rank's program order — deterministic by construction.
  flush_held();
}

std::span<const std::byte> Mpi::recv_internal(Comm comm, int source,
                                              std::uint64_t tag) {
  check_doom();
  if (world_->comm_revoked(comm)) {
    throw RankRevoked("rank " + std::to_string(world_rank_) +
                      ": receive on revoked communicator");
  }
  const auto& members = world_->group_of(comm);
  if (source < 0 || source >= static_cast<int>(members.size())) {
    throw MpiError(MpiErrc::InvalidRank,
                   "source rank " + std::to_string(source) +
                       " outside communicator of size " +
                       std::to_string(members.size()));
  }
  // A wait on a pre-revocation communicator must wake with RankRevoked
  // when a fail-stop revokes the world; waits on the post-repair
  // (shrunken) communicator are exempt and keep waiting.
  const bool revocable =
      !world_->poison().revoked_flag.load(std::memory_order_acquire) ||
      world_->comm_revoked(comm);
  // Publish the wait so the idle scan can check whether the awaited
  // (source, tag) is queued; restore Computing however we leave.
  world_->progress().publish_wait(
      world_rank_, source, members[static_cast<std::size_t>(source)], tag);
  WaitScope scope(world_->progress(), world_rank_);
  try {
    Message message = world_->mailbox(world_rank_).receive(
        source, tag, world_->deadline(), revocable);
    // Keep the payload's storage as this rank's inbound buffer and return
    // the storage it replaces to the world for the next packed message.
    inbound_.swap(message.payload);
    world_->recycle_payload(std::move(message.payload));
    return inbound_;
  } catch (const SimTimeout& timeout) {
    throw SimTimeout("rank " + std::to_string(world_rank_) + " blocked in " +
                     world_->progress().snapshot(world_rank_).sig.describe() +
                     ": " + timeout.what());
  } catch (const WorldAborted& aborted) {
    throw WorldAborted("rank " + std::to_string(world_rank_) + " blocked in " +
                       world_->progress().snapshot(world_rank_).sig.describe() +
                       ": " + aborted.what());
  }
}

std::vector<std::byte> Mpi::pack(const void* ptr, std::size_t bytes,
                                 const char* what) {
  registry().check(ptr, bytes, what);
  return copy_payload({static_cast<const std::byte*>(ptr), bytes});
}

std::vector<std::byte> Mpi::copy_payload(std::span<const std::byte> bytes) {
  std::vector<std::byte> out = world_->take_payload();
  out.assign(bytes.begin(), bytes.end());
  return out;
}

void Mpi::store(void* ptr, std::span<const std::byte> data, const char* what) {
  registry().check(ptr, data.size(), what);
  if (!data.empty()) std::memcpy(ptr, data.data(), data.size());
}

// --- point-to-point ---------------------------------------------------------

void Mpi::fill_p2p_site(P2pCall& call, const std::source_location& loc) {
  call.site_file = loc.file_name();
  call.site_line = static_cast<int>(loc.line());
  call.site_id = site_hash(loc, "p2p:", static_cast<int>(call.kind));
  call.invocation = invocations_[call.site_id]++;
  call.rank = world_->comm_rank_of(call.comm, world_rank_);
}

void Mpi::dispatch_p2p(P2pCall& call, std::source_location loc) {
  if (world_->poisoned()) {
    throw WorldAborted("point-to-point interrupted by world teardown");
  }
  fill_p2p_site(call, loc);
  publish_op(to_string(call.kind), call.comm,
             static_cast<std::uint32_t>(call.invocation), -1);
  if (ToolHooks* tools = world_->tools()) {
    tools->on_p2p(call, *this);
  }
}

void Mpi::send(const void* buf, std::int32_t count, Datatype dtype, int dest,
               std::int32_t tag, Comm comm, std::source_location loc) {
  P2pCall call;
  call.kind = P2pKind::Send;
  call.buffer = const_cast<void*>(buf);  // fault model mutates app data
  call.count = count;
  call.datatype = dtype;
  call.peer = dest;
  call.tag = tag;
  call.comm = comm;
  if (replay_active()) {
    fill_p2p_site(call, loc);
    replay_send(call);
    return;
  }
  dispatch_p2p(call, loc);

  if (call.count < 0) {
    throw MpiError(MpiErrc::InvalidCount, std::to_string(call.count));
  }
  if (!is_valid(call.datatype)) {
    throw MpiError(MpiErrc::InvalidDatatype,
                   "handle 0x" + std::to_string(raw(call.datatype)));
  }
  if (call.tag < 0) {
    throw MpiError(MpiErrc::InvalidTag, std::to_string(call.tag));
  }
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  const std::uint64_t transport_tag = p2p_tag(call.comm, call.tag);
  std::vector<std::byte> payload = pack(call.buffer, bytes, "send");
  if (recorder_ != nullptr) {
    const auto& members = world_->group_of(call.comm);
    if (call.peer >= 0 && call.peer < static_cast<int>(members.size())) {
      recorder_->record_send(world_rank_, call,
                             members[static_cast<std::size_t>(call.peer)],
                             transport_tag, payload);
    }
  }
  send_internal(call.comm, call.peer, transport_tag, std::move(payload));
}

void Mpi::recv(void* buf, std::int32_t count, Datatype dtype, int source,
               std::int32_t tag, Comm comm, std::source_location loc) {
  P2pCall call;
  call.kind = P2pKind::Recv;
  call.buffer = buf;
  call.count = count;
  call.datatype = dtype;
  call.peer = source;
  call.tag = tag;
  call.comm = comm;
  if (replay_active()) {
    fill_p2p_site(call, loc);
    replay_recv(call);
    return;
  }
  dispatch_p2p(call, loc);

  if (call.count < 0) {
    throw MpiError(MpiErrc::InvalidCount, std::to_string(call.count));
  }
  if (!is_valid(call.datatype)) {
    throw MpiError(MpiErrc::InvalidDatatype,
                   "handle 0x" + std::to_string(raw(call.datatype)));
  }
  if (call.tag < 0) {
    throw MpiError(MpiErrc::InvalidTag, std::to_string(call.tag));
  }
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  const std::uint64_t transport_tag = p2p_tag(call.comm, call.tag);
  const auto payload = recv_internal(call.comm, call.peer, transport_tag);
  if (payload.size() > bytes) {
    throw MpiError(MpiErrc::Truncate,
                   "message of " + std::to_string(payload.size()) +
                       " bytes for a " + std::to_string(bytes) +
                       "-byte receive");
  }
  store(call.buffer, payload, "recv");
  if (recorder_ != nullptr) {
    recorder_->record_recv(world_rank_, call, transport_tag, payload);
  }
}

Mpi::Request Mpi::isend(const void* buf, std::int32_t count, Datatype dtype,
                        int dest, std::int32_t tag, Comm comm,
                        std::source_location loc) {
  // Eager/buffered: identical to a blocking send on this transport.
  send(buf, count, dtype, dest, tag, comm, loc);
  return Request{};
}

Mpi::Request Mpi::irecv(void* buf, std::int32_t count, Datatype dtype,
                        int source, std::int32_t tag, Comm comm,
                        std::source_location loc) {
  // Nonblocking receives decouple posting from matching, which the
  // prefix recording does not model; recording runs fall back, replay
  // runs cannot legally get here (their recording would have fallen
  // back first, so this is a divergence).
  if (replay_active()) {
    throw ReplayError("irecv posted during prefix replay");
  }
  if (recorder_ != nullptr) {
    recorder_->mark_unsupported("nonblocking receive (irecv)");
  }
  // Interpose and validate at post time (the parameters as passed);
  // matching happens at wait().
  P2pCall call;
  call.kind = P2pKind::Recv;
  call.buffer = buf;
  call.count = count;
  call.datatype = dtype;
  call.peer = source;
  call.tag = tag;
  call.comm = comm;
  dispatch_p2p(call, loc);

  if (call.count < 0) {
    throw MpiError(MpiErrc::InvalidCount, std::to_string(call.count));
  }
  if (!is_valid(call.datatype)) {
    throw MpiError(MpiErrc::InvalidDatatype,
                   "handle 0x" + std::to_string(raw(call.datatype)));
  }
  if (call.tag < 0) {
    throw MpiError(MpiErrc::InvalidTag, std::to_string(call.tag));
  }
  Request request;
  request.pending_ = Request::PendingRecv{call.buffer, call.count,
                                          call.datatype, call.peer,
                                          call.tag,     call.comm};
  return request;
}

void Mpi::wait(Request& request) {
  if (!request.pending_) return;
  const auto pending = *request.pending_;
  request.pending_.reset();
  const std::size_t bytes =
      static_cast<std::size_t>(pending.count) * datatype_size(pending.dtype);
  const auto payload = recv_internal(pending.comm, pending.source,
                                    p2p_tag(pending.comm, pending.tag));
  if (payload.size() > bytes) {
    throw MpiError(MpiErrc::Truncate,
                   "message of " + std::to_string(payload.size()) +
                       " bytes for a " + std::to_string(bytes) +
                       "-byte receive");
  }
  store(pending.buf, payload, "irecv");
}

void Mpi::waitall(std::span<Request> requests) {
  for (auto& request : requests) wait(request);
}

// --- dispatch ----------------------------------------------------------------

void Mpi::dispatch(CollectiveCall& call, std::source_location loc) {
  if (replay_active()) {
    // Site identification through the normal counters (so the rank
    // arrives at the cut with live-identical state), then the recorded
    // outputs instead of the algorithm — zero rendezvous.
    call.site_file = loc.file_name();
    call.site_line = static_cast<int>(loc.line());
    call.site_id = site_hash(loc, "", static_cast<int>(call.kind));
    call.invocation = invocations_[call.site_id]++;
    call.rank = world_->comm_rank_of(call.comm, world_rank_);
    replay_collective(call);
    return;
  }
  if (world_->poisoned()) {
    throw WorldAborted("collective interrupted by world teardown");
  }
  check_doom();
  if (world_->comm_revoked(call.comm)) {
    throw RankRevoked("rank " + std::to_string(world_rank_) + ": " +
                      std::string(to_string(call.kind)) +
                      " on revoked communicator");
  }
  call.site_file = loc.file_name();
  call.site_line = static_cast<int>(loc.line());
  call.site_id = site_hash(loc, "", static_cast<int>(call.kind));
  call.invocation = invocations_[call.site_id]++;
  call.rank = world_->comm_rank_of(call.comm, world_rank_);

  // Reserve the sequence number against the *pre-corruption* communicator:
  // the rank entered this collective on that communicator, and peers will
  // look for its traffic there.
  const RawHandle pre_comm = raw(call.comm);

  if (ToolHooks* tools = world_->tools()) {
    tools->on_enter(call, *this);
  }

  validate_collective(call, *world_, world_rank_);

  // A corrupted comm handle that still validates (another live
  // communicator) diverts this rank's traffic there — sequence numbers are
  // tracked per communicator actually used, so the confusion is real.
  const RawHandle used_comm = raw(call.comm);
  std::uint32_t seq = coll_seq_[used_comm]++;
  if (used_comm != pre_comm) {
    // Keep the original communicator's stream moving too, as the rank has
    // conceptually consumed its slot there.
    coll_seq_[pre_comm]++;
  }

  publish_op(to_string(call.kind), call.comm, seq,
             is_rooted(call.kind) ? static_cast<int>(call.root) : -1);

  run_algorithm(call, seq);

  if (recorder_ != nullptr) {
    const auto spans = collect_write_spans(
        call, static_cast<int>(world_->group_of(call.comm).size()));
    recorder_->record_collective(world_rank_, call, spans);
  }

  if (ToolHooks* tools = world_->tools()) {
    tools->on_exit(call, *this);
  }
}

void Mpi::run_algorithm(const CollectiveCall& call, std::uint32_t seq) {
  const auto& algorithms = world_->options().algorithms;
  switch (call.kind) {
    case CollectiveKind::Barrier: return run_barrier(call, seq);
    case CollectiveKind::Bcast:
      return algorithms.bcast == CollectiveAlgorithms::Bcast::Chain
                 ? run_bcast_chain(call, seq)
                 : run_bcast(call, seq);
    case CollectiveKind::Reduce: return run_reduce(call, seq);
    case CollectiveKind::Allreduce:
      return algorithms.allreduce ==
                     CollectiveAlgorithms::Allreduce::ReduceBcast
                 ? run_allreduce_reduce_bcast(call, seq)
                 : run_allreduce(call, seq);
    case CollectiveKind::Scatter: return run_scatter(call, seq);
    case CollectiveKind::Scatterv: return run_scatterv(call, seq);
    case CollectiveKind::Gather: return run_gather(call, seq);
    case CollectiveKind::Gatherv: return run_gatherv(call, seq);
    case CollectiveKind::Allgather: return run_allgather(call, seq);
    case CollectiveKind::Allgatherv: return run_allgatherv(call, seq);
    case CollectiveKind::Alltoall: return run_alltoall(call, seq);
    case CollectiveKind::Alltoallv: return run_alltoallv(call, seq);
    case CollectiveKind::ReduceScatterBlock:
      return run_reduce_scatter_block(call, seq);
    case CollectiveKind::Scan: return run_scan(call, seq);
  }
  throw InternalError("run_algorithm: unknown collective kind");
}

// --- collective entry points ---------------------------------------------------

void Mpi::barrier(Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Barrier;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::bcast(void* buf, std::int32_t count, Datatype dtype,
                std::int32_t root, Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Bcast;
  call.sendbuf = buf;
  call.recvbuf = buf;
  call.count = count;
  call.datatype = dtype;
  call.root = root;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::reduce(const void* sendbuf, void* recvbuf, std::int32_t count,
                 Datatype dtype, Op op, std::int32_t root, Comm comm,
                 std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Reduce;
  call.sendbuf = const_cast<void*>(sendbuf);  // fault model mutates app data
  call.recvbuf = recvbuf;
  call.count = count;
  call.datatype = dtype;
  call.op = op;
  call.root = root;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::allreduce(const void* sendbuf, void* recvbuf, std::int32_t count,
                    Datatype dtype, Op op, Comm comm,
                    std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Allreduce;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = count;
  call.datatype = dtype;
  call.op = op;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::scatter(const void* sendbuf, std::int32_t sendcount,
                  Datatype sendtype, void* recvbuf, std::int32_t recvcount,
                  Datatype recvtype, std::int32_t root, Comm comm,
                  std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Scatter;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.recvcount = recvcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.root = root;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::gather(const void* sendbuf, std::int32_t sendcount,
                 Datatype sendtype, void* recvbuf, std::int32_t recvcount,
                 Datatype recvtype, std::int32_t root, Comm comm,
                 std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Gather;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.recvcount = recvcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.root = root;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::allgather(const void* sendbuf, std::int32_t sendcount,
                    Datatype sendtype, void* recvbuf, std::int32_t recvcount,
                    Datatype recvtype, Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Allgather;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.recvcount = recvcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::scatterv(const void* sendbuf,
                   const std::vector<std::int32_t>& sendcounts,
                   const std::vector<std::int32_t>& sdispls, Datatype sendtype,
                   void* recvbuf, std::int32_t recvcount, Datatype recvtype,
                   std::int32_t root, Comm comm, std::source_location loc) {
  std::vector<std::int32_t> sc = sendcounts;
  std::vector<std::int32_t> sd = sdispls;
  CollectiveCall call;
  call.kind = CollectiveKind::Scatterv;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.recvcount = recvcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.root = root;
  call.comm = comm;
  call.sendcounts = &sc;
  call.sdispls = &sd;
  dispatch(call, loc);
}

void Mpi::gatherv(const void* sendbuf, std::int32_t sendcount,
                  Datatype sendtype, void* recvbuf,
                  const std::vector<std::int32_t>& recvcounts,
                  const std::vector<std::int32_t>& rdispls, Datatype recvtype,
                  std::int32_t root, Comm comm, std::source_location loc) {
  std::vector<std::int32_t> rc = recvcounts;
  std::vector<std::int32_t> rd = rdispls;
  CollectiveCall call;
  call.kind = CollectiveKind::Gatherv;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.root = root;
  call.comm = comm;
  call.recvcounts = &rc;
  call.rdispls = &rd;
  dispatch(call, loc);
}

void Mpi::allgatherv(const void* sendbuf, std::int32_t sendcount,
                     Datatype sendtype, void* recvbuf,
                     const std::vector<std::int32_t>& recvcounts,
                     const std::vector<std::int32_t>& rdispls,
                     Datatype recvtype, Comm comm, std::source_location loc) {
  std::vector<std::int32_t> rc = recvcounts;
  std::vector<std::int32_t> rd = rdispls;
  CollectiveCall call;
  call.kind = CollectiveKind::Allgatherv;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.comm = comm;
  call.recvcounts = &rc;
  call.rdispls = &rd;
  dispatch(call, loc);
}

void Mpi::alltoall(const void* sendbuf, std::int32_t sendcount,
                   Datatype sendtype, void* recvbuf, std::int32_t recvcount,
                   Datatype recvtype, Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Alltoall;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = sendcount;
  call.recvcount = recvcount;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::alltoallv(const void* sendbuf,
                    const std::vector<std::int32_t>& sendcounts,
                    const std::vector<std::int32_t>& sdispls,
                    Datatype sendtype, void* recvbuf,
                    const std::vector<std::int32_t>& recvcounts,
                    const std::vector<std::int32_t>& rdispls,
                    Datatype recvtype, Comm comm, std::source_location loc) {
  // Local copies form the call's view of the arrays: tools corrupt the
  // view (the "parameter" as passed), never the application's own arrays.
  std::vector<std::int32_t> sc = sendcounts;
  std::vector<std::int32_t> sd = sdispls;
  std::vector<std::int32_t> rc = recvcounts;
  std::vector<std::int32_t> rd = rdispls;
  CollectiveCall call;
  call.kind = CollectiveKind::Alltoallv;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.datatype = sendtype;
  call.recvdatatype = recvtype;
  call.comm = comm;
  call.sendcounts = &sc;
  call.sdispls = &sd;
  call.recvcounts = &rc;
  call.rdispls = &rd;
  dispatch(call, loc);
}

void Mpi::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                               std::int32_t recvcount, Datatype dtype, Op op,
                               Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::ReduceScatterBlock;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = recvcount;
  call.datatype = dtype;
  call.op = op;
  call.comm = comm;
  dispatch(call, loc);
}

void Mpi::scan(const void* sendbuf, void* recvbuf, std::int32_t count,
               Datatype dtype, Op op, Comm comm, std::source_location loc) {
  CollectiveCall call;
  call.kind = CollectiveKind::Scan;
  call.sendbuf = const_cast<void*>(sendbuf);
  call.recvbuf = recvbuf;
  call.count = count;
  call.datatype = dtype;
  call.op = op;
  call.comm = comm;
  dispatch(call, loc);
}

// --- communicator management ---------------------------------------------------

Comm Mpi::comm_split(Comm parent, int color, int key) {
  if (replay_active()) {
    throw ReplayError("comm_split during prefix replay");
  }
  if (recorder_ != nullptr) {
    recorder_->mark_unsupported("communicator construction (comm_split)");
  }
  const int n = size(parent);
  const int me = rank(parent);
  const std::uint32_t split_id = split_seq_[raw(parent)]++;

  // Share (color, key, world_rank) over the parent with an internal ring
  // allgather. Communicator construction is infrastructure, not one of the
  // paper's injected collectives, so it bypasses the tool chain — but it
  // still uses the real transport.
  struct Entry {
    std::int64_t color;
    std::int64_t key;
    std::int64_t world_rank;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(n));
  entries[static_cast<std::size_t>(me)] = {color, key, world_rank_};
  const std::uint32_t seq = coll_seq_[raw(parent)]++;
  publish_op("MPI_Comm_split", parent, seq, -1);
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  int have = me;
  for (int step = 1; step < n; ++step) {
    std::vector<std::byte> out(sizeof(Entry));
    std::memcpy(out.data(), &entries[static_cast<std::size_t>(have)],
                sizeof(Entry));
    send_internal(parent, right,
                  coll_tag(parent, seq, static_cast<std::uint8_t>(step)),
                  std::move(out));
    auto in = recv_internal(
        parent, left, coll_tag(parent, seq, static_cast<std::uint8_t>(step)));
    if (in.size() != sizeof(Entry)) {
      throw MpiError(MpiErrc::Internal, "comm_split exchange corrupted");
    }
    have = (me - step + n) % n;
    std::memcpy(&entries[static_cast<std::size_t>(have)], in.data(),
                sizeof(Entry));
  }

  // My group: every member with my color, ordered by (key, parent rank).
  std::vector<std::pair<std::int64_t, int>> mine;  // (key, parent rank)
  for (int r = 0; r < n; ++r) {
    if (entries[static_cast<std::size_t>(r)].color == color) {
      mine.emplace_back(entries[static_cast<std::size_t>(r)].key, r);
    }
  }
  std::sort(mine.begin(), mine.end());
  std::vector<int> members;
  members.reserve(mine.size());
  for (const auto& [k, parent_rank] : mine) {
    members.push_back(static_cast<int>(
        entries[static_cast<std::size_t>(parent_rank)].world_rank));
  }

  std::ostringstream comm_key;
  comm_key << "split:" << raw(parent) << ':' << split_id << ':' << color;
  return world_->register_comm(comm_key.str(), std::move(members));
}

Comm Mpi::comm_dup(Comm parent) { return comm_split(parent, 0, rank(parent)); }

}  // namespace fastfit::mpi
