// Alternative collective algorithms (selected via
// WorldOptions::algorithms): chain-pipeline MPI_Bcast and
// reduce-then-bcast MPI_Allreduce. Functionally equivalent to the
// defaults in fault-free runs; their *fault* behaviour differs — a
// divergent root stalls a chain at the break point, and the composed
// allreduce funnels every corruption through rank 0 — which is what the
// algorithm ablation measures.

#include "minimpi/coll_util.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::mpi {

using detail::combine_payload;
using detail::require_fits;

void Mpi::run_bcast_chain(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);
  const int relative = (me - call.root + n) % n;

  if (relative != 0) {
    const int prev = (me - 1 + n) % n;
    auto payload = recv_internal(call.comm, prev, coll_tag(call.comm, seq, 0));
    require_fits(payload.size(), bytes, "bcast(chain)");
    store(call.recvbuf, payload, "bcast receive buffer");
  }
  if (relative + 1 < n) {
    const int next = (me + 1) % n;
    send_internal(call.comm, next, coll_tag(call.comm, seq, 0),
                  pack(call.sendbuf, bytes, "bcast buffer"));
  }
}

void Mpi::run_allreduce_reduce_bcast(const CollectiveCall& call,
                                     std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t bytes =
      static_cast<std::size_t>(call.count) * datatype_size(call.datatype);

  // Binomial reduce to rank 0 (phase 0)...
  auto accum = pack(call.sendbuf, bytes, "allreduce send buffer");
  int mask = 1;
  while (mask < n) {
    if ((me & mask) == 0) {
      const int src = me | mask;
      if (src < n) {
        auto payload =
            recv_internal(call.comm, src, coll_tag(call.comm, seq, 0));
        combine_payload(call.op, call.datatype, payload, accum);
      }
    } else {
      send_internal(call.comm, me & ~mask, coll_tag(call.comm, seq, 0),
                    std::move(accum));
      accum.clear();
      break;
    }
    mask <<= 1;
  }

  // ...then binomial bcast of the result from rank 0 (phase 1).
  if (me != 0) {
    int bit = 1;
    while (bit < n) {
      if (me & bit) {
        const auto result =
            recv_internal(call.comm, me - bit, coll_tag(call.comm, seq, 1));
        require_fits(result.size(), bytes, "allreduce(reduce+bcast)");
        accum.assign(result.begin(), result.end());
        break;
      }
      bit <<= 1;
    }
    bit >>= 1;
    while (bit > 0) {
      if (me + bit < n) {
        send_internal(call.comm, me + bit, coll_tag(call.comm, seq, 1),
                      copy_payload(accum));
      }
      bit >>= 1;
    }
  } else {
    int bit = 1;
    while (bit < n) bit <<= 1;
    bit >>= 1;
    while (bit > 0) {
      if (bit < n) {
        send_internal(call.comm, bit, coll_tag(call.comm, seq, 1),
                      copy_payload(accum));
      }
      bit >>= 1;
    }
  }
  store(call.recvbuf, accum, "allreduce receive buffer");
}

}  // namespace fastfit::mpi
