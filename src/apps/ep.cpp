#include "apps/ep.hpp"

#include <cmath>

#include "apps/common.hpp"
#include "support/rng.hpp"

namespace fastfit::apps {

std::uint64_t MiniEP::run_rank(AppContext& ctx) const {
  auto& mpi = ctx.mpi;
  auto& tr = ctx.trace;
  const int me = mpi.rank();

  // ---- init phase ----------------------------------------------------------
  tr.set_phase(trace::ExecPhase::Init);
  int pairs = 0;
  int annuli = 0;
  {
    trace::FunctionScope scope(tr, "ep_setup");
    mpi::RegisteredBuffer<std::int32_t> params(mpi.registry(), 2);
    if (me == 0) {
      params[0] = config_.pairs_per_rank;
      params[1] = config_.annuli;
    }
    mpi.bcast(params.data(), 2, mpi::kInt32, 0);
    pairs = params[0];
    annuli = params[1];
    trace::ErrorHandlingScope errhal(tr);
    app_check(pairs > 0 && pairs <= (1 << 24), "EP: implausible pair count");
    app_check(annuli > 0 && annuli <= 64, "EP: implausible annulus count");
  }

  // ---- compute phase: generate and tally (no communication) ----------------
  tr.set_phase(trace::ExecPhase::Compute);
  std::vector<std::int64_t> tally(static_cast<std::size_t>(annuli), 0);
  std::int64_t accepted = 0;
  double sum_x = 0.0;
  double sum_y = 0.0;
  double max_norm = 0.0;
  {
    trace::FunctionScope scope(tr, "generate_deviates");
    RngStream rng(ctx.input_seed, "ep-pairs", static_cast<std::uint64_t>(me));
    for (int k = 0; k < pairs; ++k) {
      if (k % 1024 == 0) mpi.check_deadline();  // bounds a flipped pair count
      const double u = 2.0 * rng.uniform() - 1.0;
      const double v = 2.0 * rng.uniform() - 1.0;
      const double s = u * u + v * v;
      if (s >= 1.0 || s == 0.0) continue;
      ++accepted;
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      const double gx = u * factor;
      const double gy = v * factor;
      sum_x += gx;
      sum_y += gy;
      const double norm = std::max(std::abs(gx), std::abs(gy));
      max_norm = std::max(max_norm, norm);
      const int ring = std::min(annuli - 1, static_cast<int>(norm));
      ++tally[static_cast<std::size_t>(ring)];
    }
  }
  // ---- end phase: global tallies and verification ---------------------------
  tr.set_phase(trace::ExecPhase::End);
  std::uint64_t digest;
  {
    trace::FunctionScope scope(tr, "combine_tallies");
    mpi::RegisteredBuffer<std::int64_t> local(
        mpi.registry(), static_cast<std::size_t>(annuli));
    mpi::RegisteredBuffer<std::int64_t> global(
        mpi.registry(), static_cast<std::size_t>(annuli));
    for (int a = 0; a < annuli; ++a) {
      local[static_cast<std::size_t>(a)] = tally[static_cast<std::size_t>(a)];
    }
    mpi.allreduce(local.data(), global.data(), annuli, mpi::kInt64,
                  mpi::kSum);
    const std::int64_t total_accepted =
        mpi.allreduce_value(accepted, mpi::kSum);
    const double gsx = mpi.allreduce_value(sum_x, mpi::kSum);
    const double gsy = mpi.allreduce_value(sum_y, mpi::kSum);
    const double gmax = mpi.allreduce_value(max_norm, mpi::kMax);

    {
      // EP's verification: annulus counts must add up to the accepted
      // pairs, and the deviate means must be plausibly Gaussian.
      trace::ErrorHandlingScope errhal(tr);
      trace::FunctionScope verify(tr, "ep_verify");
      std::int64_t ring_sum = 0;
      for (int a = 0; a < annuli; ++a) {
        const std::int64_t count = global[static_cast<std::size_t>(a)];
        app_check(count >= 0, "EP: negative annulus count");
        ring_sum += count;
      }
      app_check(ring_sum == total_accepted,
                "EP: annulus tallies do not add up");
      app_check_finite(gsx, "EP: sum of deviates (x)");
      app_check_finite(gsy, "EP: sum of deviates (y)");
      const double mean_bound =
          6.0 * std::sqrt(static_cast<double>(total_accepted) + 1.0);
      app_check(std::abs(gsx) < mean_bound && std::abs(gsy) < mean_bound,
                "EP: deviate means implausibly biased");
    }
    mpi.barrier();

    std::vector<double> observables;
    for (int a = 0; a < annuli; ++a) {
      observables.push_back(
          static_cast<double>(global[static_cast<std::size_t>(a)]));
    }
    observables.push_back(static_cast<double>(total_accepted));
    observables.push_back(gsx);
    observables.push_back(gsy);
    observables.push_back(gmax);
    digest = digest_doubles(observables, 6);
  }
  return digest;
}

}  // namespace fastfit::apps
