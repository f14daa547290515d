#include "minimpi/snapshot.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "minimpi/datatype.hpp"

namespace fastfit::mpi {

namespace {

std::size_t elem_size(Datatype dtype) { return datatype_size(dtype); }

void add_span(std::vector<WriteSpan>& spans, void* base, std::size_t offset,
              std::size_t bytes) {
  if (bytes == 0) return;
  spans.push_back({static_cast<std::byte*>(base) + offset, bytes});
}

// Per-displacement blocks of a v-collective's receive side. Blocks are
// recorded individually because the gaps between displacements need not
// be registered memory.
void add_blocks(std::vector<WriteSpan>& spans, void* recvbuf,
                const std::vector<std::int32_t>* counts,
                const std::vector<std::int32_t>* displs, std::size_t esize) {
  if (counts == nullptr || displs == nullptr) return;
  const std::size_t n = std::min(counts->size(), displs->size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto count = (*counts)[i];
    const auto displ = (*displs)[i];
    if (count <= 0 || displ < 0) continue;
    add_span(spans, recvbuf, static_cast<std::size_t>(displ) * esize,
             static_cast<std::size_t>(count) * esize);
  }
}

}  // namespace

std::vector<WriteSpan> collect_write_spans(const CollectiveCall& call,
                                           int comm_size) {
  std::vector<WriteSpan> spans;
  const bool is_root = call.rank == static_cast<int>(call.root);
  const std::size_t n = static_cast<std::size_t>(comm_size);
  switch (call.kind) {
    case CollectiveKind::Barrier:
      break;
    case CollectiveKind::Bcast:
      // Root's buffer is the source; recording it back is a no-op copy of
      // identical bytes, and keeping every rank symmetric is simpler.
      add_span(spans, call.recvbuf, 0,
               static_cast<std::size_t>(call.count) * elem_size(call.datatype));
      break;
    case CollectiveKind::Reduce:
      if (is_root) {
        add_span(spans, call.recvbuf, 0,
                 static_cast<std::size_t>(call.count) *
                     elem_size(call.datatype));
      }
      break;
    case CollectiveKind::Allreduce:
    case CollectiveKind::Scan:
      add_span(spans, call.recvbuf, 0,
               static_cast<std::size_t>(call.count) * elem_size(call.datatype));
      break;
    case CollectiveKind::ReduceScatterBlock:
      // `count` carries the per-rank recvcount for this kind.
      add_span(spans, call.recvbuf, 0,
               static_cast<std::size_t>(call.count) * elem_size(call.datatype));
      break;
    case CollectiveKind::Scatter:
    case CollectiveKind::Scatterv:
      add_span(spans, call.recvbuf, 0,
               static_cast<std::size_t>(call.recvcount) *
                   elem_size(call.recvdatatype));
      break;
    case CollectiveKind::Gather:
      if (is_root) {
        add_span(spans, call.recvbuf, 0,
                 n * static_cast<std::size_t>(call.recvcount) *
                     elem_size(call.recvdatatype));
      }
      break;
    case CollectiveKind::Gatherv:
      if (is_root) {
        add_blocks(spans, call.recvbuf, call.recvcounts, call.rdispls,
                   elem_size(call.recvdatatype));
      }
      break;
    case CollectiveKind::Allgather:
    case CollectiveKind::Alltoall:
      add_span(spans, call.recvbuf, 0,
               n * static_cast<std::size_t>(call.recvcount) *
                   elem_size(call.recvdatatype));
      break;
    case CollectiveKind::Allgatherv:
    case CollectiveKind::Alltoallv:
      add_blocks(spans, call.recvbuf, call.recvcounts, call.rdispls,
                 elem_size(call.recvdatatype));
      break;
  }
  return spans;
}

// --- PrefixRecorder ---------------------------------------------------------

PrefixRecorder::PrefixRecorder(int nranks)
    : ops_(static_cast<std::size_t>(nranks)) {
  if (nranks < 1) throw InternalError("PrefixRecorder: nranks must be >= 1");
}

void PrefixRecorder::record_collective(int world_rank,
                                       const CollectiveCall& call,
                                       std::span<const WriteSpan> spans) {
  RecordedOp op;
  op.kind = RecordedOp::Kind::Collective;
  op.coll = call.kind;
  op.site_id = call.site_id;
  op.site_line = call.site_line;
  op.invocation = call.invocation;
  op.comm = raw(call.comm);
  op.self_comm = call.rank;
  op.writes.reserve(spans.size());
  for (const auto& span : spans) {
    op.writes.push_back(chunks_.intern(span.ptr, span.bytes));
  }
  ops_[static_cast<std::size_t>(world_rank)].push_back(std::move(op));
}

void PrefixRecorder::record_send(int world_rank, const P2pCall& call,
                                 int dest_world, std::uint64_t transport_tag,
                                 std::span<const std::byte> payload) {
  RecordedOp op;
  op.kind = RecordedOp::Kind::Send;
  op.site_id = call.site_id;
  op.site_line = call.site_line;
  op.invocation = call.invocation;
  op.comm = raw(call.comm);
  op.self_comm = call.rank;
  op.peer = call.peer;
  op.peer_world = dest_world;
  op.transport_tag = transport_tag;
  op.writes.push_back(chunks_.intern(payload.data(), payload.size()));
  ops_[static_cast<std::size_t>(world_rank)].push_back(std::move(op));
}

void PrefixRecorder::record_recv(int world_rank, const P2pCall& call,
                                 std::uint64_t transport_tag,
                                 std::span<const std::byte> payload) {
  RecordedOp op;
  op.kind = RecordedOp::Kind::Recv;
  op.site_id = call.site_id;
  op.site_line = call.site_line;
  op.invocation = call.invocation;
  op.comm = raw(call.comm);
  op.self_comm = call.rank;
  op.peer = call.peer;
  op.transport_tag = transport_tag;
  op.writes.push_back(chunks_.intern(payload.data(), payload.size()));
  ops_[static_cast<std::size_t>(world_rank)].push_back(std::move(op));
}

void PrefixRecorder::mark_unsupported(const std::string& why) {
  if (!unsupported_) {
    unsupported_ = true;
    why_ = why;
  }
}

std::shared_ptr<const WorldRecording> PrefixRecorder::finish() {
  auto recording = std::make_shared<WorldRecording>();
  recording->nranks = static_cast<int>(ops_.size());
  recording->ops = std::move(ops_);
  ops_.assign(recording->ops.size(), {});
  recording->replayable = !unsupported_;
  recording->unsupported_reason = why_;
  recording->payload_bytes = chunks_.unique_bytes();
  for (const auto& stream : recording->ops) {
    recording->total_ops += stream.size();
  }
  return recording;
}

// --- WorldSnapshot ----------------------------------------------------------

std::shared_ptr<const WorldSnapshot> WorldSnapshot::build(
    std::shared_ptr<const WorldRecording> recording, std::uint32_t site_id,
    std::uint64_t invocation) {
  if (!recording || !recording->replayable) return nullptr;

  auto snapshot = std::make_shared<WorldSnapshot>();
  snapshot->cut.resize(static_cast<std::size_t>(recording->nranks));
  for (int r = 0; r < recording->nranks; ++r) {
    const auto& stream = recording->ops[static_cast<std::size_t>(r)];
    std::size_t cut = stream.size();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& op = stream[i];
      if (op.kind == RecordedOp::Kind::Collective &&
          op.site_id == site_id && op.invocation == invocation) {
        cut = i;
        break;
      }
    }
    // The injected collective must exist in every rank's log: all ranks
    // switch to live execution at the same rendezvous. A collective over
    // a sub-communicator would leave some rank without a cut.
    if (cut == stream.size()) return nullptr;
    snapshot->cut[static_cast<std::size_t>(r)] = cut;
  }

  // In-flight derivation. Mailbox matching is exact on (source comm rank,
  // transport tag) with FIFO order per key, and within one communicator a
  // key identifies a unique sender — so the k-th prefix receive for a key
  // consumes the k-th prefix send. A prefix receive beyond the sender's
  // prefix sends would need a message from the live suffix: the cut is
  // not replayable. Prefix sends beyond the receiver's prefix receives
  // are in flight across the cut and get pre-seeded.
  using Key = std::pair<int, std::uint64_t>;  // (source comm rank, tag)
  std::vector<std::map<Key, std::size_t>> needed(
      static_cast<std::size_t>(recording->nranks));
  for (int r = 0; r < recording->nranks; ++r) {
    const auto& stream = recording->ops[static_cast<std::size_t>(r)];
    const std::size_t cut = snapshot->cut[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < cut; ++i) {
      const auto& op = stream[i];
      if (op.kind != RecordedOp::Kind::Recv) continue;
      ++needed[static_cast<std::size_t>(r)][{op.peer, op.transport_tag}];
    }
  }
  for (int s = 0; s < recording->nranks; ++s) {
    const auto& stream = recording->ops[static_cast<std::size_t>(s)];
    const std::size_t cut = snapshot->cut[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < cut; ++i) {
      const auto& op = stream[i];
      if (op.kind != RecordedOp::Kind::Send) continue;
      if (op.peer_world < 0 || op.peer_world >= recording->nranks) {
        return nullptr;
      }
      auto& want = needed[static_cast<std::size_t>(op.peer_world)];
      const Key key{op.self_comm, op.transport_tag};
      if (auto it = want.find(key); it != want.end() && it->second > 0) {
        --it->second;  // consumed within the prefix on both sides
        continue;
      }
      PreseedMessage pre;
      pre.dest_world = op.peer_world;
      pre.source_comm = op.self_comm;
      pre.transport_tag = op.transport_tag;
      pre.payload = op.writes.empty() ? nullptr : op.writes.front();
      snapshot->preseed.push_back(std::move(pre));
    }
  }
  // Any receive still needed draws on a suffix send: invalid cut.
  for (const auto& want : needed) {
    for (const auto& [key, count] : want) {
      if (count > 0) return nullptr;
    }
  }

  snapshot->approx_bytes =
      snapshot->cut.size() * sizeof(std::size_t) +
      snapshot->preseed.size() * sizeof(PreseedMessage);
  for (const auto& pre : snapshot->preseed) {
    if (pre.payload) snapshot->approx_bytes += pre.payload->size();
  }
  snapshot->recording = std::move(recording);
  return snapshot;
}

}  // namespace fastfit::mpi
