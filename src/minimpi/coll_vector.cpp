// Vector variants of the rooted/gathering collectives: MPI_Scatterv,
// MPI_Gatherv, MPI_Allgatherv. Linear/ring algorithms with per-rank
// counts and displacements (in elements). The count arrays are part of
// the injectable parameter surface: a flipped entry shears exactly one
// rank's block.

#include "minimpi/coll_util.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::mpi {

using detail::byte_ptr;
using detail::require_fits;

void Mpi::run_scatterv(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t rbytes =
      static_cast<std::size_t>(call.recvcount) *
      datatype_size(call.recvdatatype);

  if (me == call.root) {
    const std::size_t esend = datatype_size(call.datatype);
    const auto& counts = *call.sendcounts;
    const auto& displs = *call.sdispls;
    std::vector<std::byte> own;
    for (int r = 0; r < n; ++r) {
      const std::size_t bytes =
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]) *
          esend;
      const std::size_t offset =
          static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) *
          esend;
      auto chunk = pack(byte_ptr(call.sendbuf) + offset, bytes,
                        "scatterv send buffer");
      if (r == me) {
        own = std::move(chunk);
      } else {
        send_internal(call.comm, r, coll_tag(call.comm, seq, 0),
                      std::move(chunk));
      }
    }
    require_fits(own.size(), rbytes, "scatterv");
    store(call.recvbuf, own, "scatterv receive buffer");
  } else {
    auto payload =
        recv_internal(call.comm, call.root, coll_tag(call.comm, seq, 0));
    require_fits(payload.size(), rbytes, "scatterv");
    store(call.recvbuf, payload, "scatterv receive buffer");
  }
}

void Mpi::run_gatherv(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t sbytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);

  if (me == call.root) {
    const std::size_t erecv = datatype_size(call.recvdatatype);
    const auto& counts = *call.recvcounts;
    const auto& displs = *call.rdispls;
    for (int r = 0; r < n; ++r) {
      std::vector<std::byte> own;
      std::span<const std::byte> payload;
      if (r == me) {
        own = pack(call.sendbuf, sbytes, "gatherv send buffer");
        payload = own;
      } else {
        payload = recv_internal(call.comm, r, coll_tag(call.comm, seq, 0));
      }
      const std::size_t bytes =
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]) *
          erecv;
      const std::size_t offset =
          static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) *
          erecv;
      require_fits(payload.size(), bytes, "gatherv");
      store(byte_ptr(call.recvbuf) + offset, payload,
            "gatherv receive buffer");
    }
  } else {
    send_internal(call.comm, call.root, coll_tag(call.comm, seq, 0),
                  pack(call.sendbuf, sbytes, "gatherv send buffer"));
  }
}

void Mpi::run_allgatherv(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t erecv = datatype_size(call.recvdatatype);
  const auto& counts = *call.recvcounts;
  const auto& displs = *call.rdispls;

  const auto block_bytes = [&](int r) {
    return static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]) *
           erecv;
  };
  const auto block_base = [&](int r) {
    return byte_ptr(call.recvbuf) +
           static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) *
               erecv;
  };

  const std::size_t sbytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  auto own = pack(call.sendbuf, sbytes, "allgatherv send buffer");
  require_fits(own.size(), block_bytes(me), "allgatherv");
  store(block_base(me), own, "allgatherv receive buffer");

  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  int held = me;
  for (int step = 1; step < n; ++step) {
    const auto phase = static_cast<std::uint8_t>(step & 0xff);
    send_internal(call.comm, right, coll_tag(call.comm, seq, phase),
                  pack(block_base(held), block_bytes(held),
                       "allgatherv receive buffer"));
    auto payload =
        recv_internal(call.comm, left, coll_tag(call.comm, seq, phase));
    held = (me - step + n) % n;
    require_fits(payload.size(), block_bytes(held), "allgatherv");
    store(block_base(held), payload, "allgatherv receive buffer");
  }
}

}  // namespace fastfit::mpi
