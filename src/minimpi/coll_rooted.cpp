// Rooted collectives: MPI_Bcast and MPI_Reduce (binomial trees),
// MPI_Scatter and MPI_Gather (linear, as production MPIs use at small
// scale).
//
// The trees are computed from each rank's own view of `root`: a corrupted
// root that stays inside [0, n) makes this rank build a *different* tree,
// producing genuinely unmatched sends/receives — the mechanism behind the
// INF_LOOP responses the paper observes for root faults.

#include "minimpi/coll_util.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::mpi {

using detail::byte_ptr;
using detail::combine_payload;
using detail::require_fits;

void Mpi::run_bcast(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t esize = datatype_size(call.datatype);
  const std::size_t bytes = static_cast<std::size_t>(call.count) * esize;
  const int relative = (me - call.root + n) % n;

  // Receive phase: find the parent bit.
  if (relative != 0) {
    int mask = 1;
    while (mask < n) {
      if (relative & mask) {
        int src = me - mask;
        if (src < 0) src += n;
        auto payload =
            recv_internal(call.comm, src, coll_tag(call.comm, seq, 0));
        require_fits(payload.size(), bytes, "bcast");
        store(call.recvbuf, payload, "bcast receive buffer");
        break;
      }
      mask <<= 1;
    }
  }

  // Forward phase: children are the bits below the parent bit. Each rank
  // forwards from its own buffer under its own count — a corrupted count
  // here shears the payload for the whole subtree.
  auto data = pack(call.sendbuf, bytes, "bcast buffer");
  int mask = 1;
  while (mask < n && (relative & mask) == 0) mask <<= 1;
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      int dst = me + mask;
      if (dst >= n) dst -= n;
      send_internal(call.comm, dst, coll_tag(call.comm, seq, 0),
                    copy_payload(data));
    }
    mask >>= 1;
  }
  world_->recycle_payload(std::move(data));
}

void Mpi::run_reduce(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t esize = datatype_size(call.datatype);
  const std::size_t bytes = static_cast<std::size_t>(call.count) * esize;
  const int relative = (me - call.root + n) % n;

  auto accum = pack(call.sendbuf, bytes, "reduce send buffer");
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < n) {
        const int src = (src_rel + call.root) % n;
        auto payload =
            recv_internal(call.comm, src, coll_tag(call.comm, seq, 0));
        combine_payload(call.op, call.datatype, payload, accum);
      }
    } else {
      const int dst = ((relative & ~mask) + call.root) % n;
      send_internal(call.comm, dst, coll_tag(call.comm, seq, 0),
                    std::move(accum));
      return;
    }
    mask <<= 1;
  }
  // relative == 0: this rank is the root of the (possibly divergent) tree.
  store(call.recvbuf, accum, "reduce receive buffer");
}

void Mpi::run_scatter(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t rbytes =
      static_cast<std::size_t>(call.recvcount) *
      datatype_size(call.recvdatatype);

  if (me == call.root) {
    const std::size_t sbytes =
        static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
    std::vector<std::byte> own;
    for (int r = 0; r < n; ++r) {
      auto chunk = pack(byte_ptr(call.sendbuf) +
                            static_cast<std::size_t>(r) * sbytes,
                        sbytes, "scatter send buffer");
      if (r == me) {
        own = std::move(chunk);
      } else {
        send_internal(call.comm, r, coll_tag(call.comm, seq, 0),
                      std::move(chunk));
      }
    }
    require_fits(own.size(), rbytes, "scatter");
    store(call.recvbuf, own, "scatter receive buffer");
  } else {
    auto payload =
        recv_internal(call.comm, call.root, coll_tag(call.comm, seq, 0));
    require_fits(payload.size(), rbytes, "scatter");
    store(call.recvbuf, payload, "scatter receive buffer");
  }
}

void Mpi::run_gather(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t sbytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);

  if (me == call.root) {
    const std::size_t rbytes =
        static_cast<std::size_t>(call.recvcount) *
        datatype_size(call.recvdatatype);
    for (int r = 0; r < n; ++r) {
      std::vector<std::byte> own;
      std::span<const std::byte> payload;
      if (r == me) {
        own = pack(call.sendbuf, sbytes, "gather send buffer");
        payload = own;
      } else {
        payload = recv_internal(call.comm, r, coll_tag(call.comm, seq, 0));
      }
      require_fits(payload.size(), rbytes, "gather");
      store(byte_ptr(call.recvbuf) + static_cast<std::size_t>(r) * rbytes,
            payload, "gather receive buffer");
    }
  } else {
    send_internal(call.comm, call.root, coll_tag(call.comm, seq, 0),
                  pack(call.sendbuf, sbytes, "gather send buffer"));
  }
}

}  // namespace fastfit::mpi
