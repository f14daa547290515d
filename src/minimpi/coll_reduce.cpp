// Reduction-family collectives without a root: MPI_Allreduce (recursive
// doubling with non-power-of-two folding, the MPICH short-vector
// algorithm), MPI_Reduce_scatter_block (reduce + scatter), and MPI_Scan
// (linear prefix chain).

#include "minimpi/coll_util.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::mpi {

using detail::byte_ptr;
using detail::combine_payload;
using detail::floor_pow2;
using detail::require_fits;

void Mpi::run_allreduce(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t esize = datatype_size(call.datatype);
  const std::size_t bytes = static_cast<std::size_t>(call.count) * esize;
  const int pof2 = floor_pow2(n);
  const int rem = n - pof2;

  auto accum = pack(call.sendbuf, bytes, "allreduce send buffer");

  // Fold the ranks beyond the largest power of two into their neighbours.
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      send_internal(call.comm, me + 1, coll_tag(call.comm, seq, 0),
                    copy_payload(accum));
      newrank = -1;  // idle during the exchange rounds
    } else {
      auto payload =
          recv_internal(call.comm, me - 1, coll_tag(call.comm, seq, 0));
      combine_payload(call.op, call.datatype, payload, accum);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  // Recursive-doubling exchange over the power-of-two subgroup.
  if (newrank != -1) {
    std::uint8_t phase = 1;
    for (int mask = 1; mask < pof2; mask <<= 1, ++phase) {
      const int newdst = newrank ^ mask;
      const int dst = (newdst < rem) ? newdst * 2 + 1 : newdst + rem;
      send_internal(call.comm, dst, coll_tag(call.comm, seq, phase),
                    copy_payload(accum));
      auto payload =
          recv_internal(call.comm, dst, coll_tag(call.comm, seq, phase));
      combine_payload(call.op, call.datatype, payload, accum);
    }
  }

  // Unfold: deliver the result back to the idle even ranks.
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      send_internal(call.comm, me - 1, coll_tag(call.comm, seq, 255),
                    copy_payload(accum));
    } else {
      const auto result =
          recv_internal(call.comm, me + 1, coll_tag(call.comm, seq, 255));
      require_fits(result.size(), bytes, "allreduce");
      accum.assign(result.begin(), result.end());
    }
  }

  store(call.recvbuf, accum, "allreduce receive buffer");
  world_->recycle_payload(std::move(accum));
}

void Mpi::run_reduce_scatter_block(const CollectiveCall& call,
                                   std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t esize = datatype_size(call.datatype);
  const std::size_t block_bytes =
      static_cast<std::size_t>(call.count) * esize;
  const std::size_t total_bytes = block_bytes * static_cast<std::size_t>(n);

  // Binomial reduce to rank 0 over the full n-block vector...
  auto accum =
      pack(call.sendbuf, total_bytes, "reduce_scatter_block send buffer");
  int mask = 1;
  bool sent = false;
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
      sent = true;
      break;
    }
    mask <<= 1;
  }

  // ...then rank 0 scatters the blocks.
  std::vector<std::byte> mine;
  if (me == 0) {
    for (int r = n - 1; r >= 1; --r) {
      const std::size_t offset = static_cast<std::size_t>(r) * block_bytes;
      std::vector<std::byte> block;
      if (offset < accum.size()) {
        const std::size_t len = std::min(block_bytes, accum.size() - offset);
        block.assign(accum.begin() + static_cast<std::ptrdiff_t>(offset),
                     accum.begin() + static_cast<std::ptrdiff_t>(offset + len));
      }
      send_internal(call.comm, r, coll_tag(call.comm, seq, 1),
                    std::move(block));
    }
    accum.resize(std::min(accum.size(), block_bytes));
    mine = std::move(accum);
  } else {
    (void)sent;
    const auto block =
        recv_internal(call.comm, 0, coll_tag(call.comm, seq, 1));
    require_fits(block.size(), block_bytes, "reduce_scatter_block");
    mine.assign(block.begin(), block.end());
  }
  store(call.recvbuf, mine, "reduce_scatter_block receive buffer");
}

void Mpi::run_scan(const CollectiveCall& call, std::uint32_t seq) {
  const int n = size(call.comm);
  const int me = world_->comm_rank_of(call.comm, world_rank_);
  const std::size_t esize = datatype_size(call.datatype);
  const std::size_t bytes = static_cast<std::size_t>(call.count) * esize;

  auto accum = pack(call.sendbuf, bytes, "scan send buffer");
  if (me > 0) {
    auto prefix =
        recv_internal(call.comm, me - 1, coll_tag(call.comm, seq, 0));
    combine_payload(call.op, call.datatype, prefix, accum);
  }
  if (me < n - 1) {
    send_internal(call.comm, me + 1, coll_tag(call.comm, seq, 0),
                  copy_payload(accum));
  }
  store(call.recvbuf, accum, "scan receive buffer");
}

}  // namespace fastfit::mpi
