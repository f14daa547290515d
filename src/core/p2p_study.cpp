#include "core/p2p_study.hpp"

#include <sstream>

#include "profile/queries.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace fastfit::core {
namespace {

std::string short_location(const profile::P2pSiteProfile& site) {
  std::string name = site.file;
  if (const auto slash = name.rfind('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  return name + ":" + std::to_string(site.line);
}

std::vector<mpi::P2pParam> p2p_params() {
  return {mpi::P2pParam::Buffer, mpi::P2pParam::Count,
          mpi::P2pParam::Datatype, mpi::P2pParam::Peer, mpi::P2pParam::Tag};
}

}  // namespace

P2pEnumeration enumerate_p2p_points(const profile::Profiler& profiler) {
  P2pEnumeration out;
  out.stats.nranks = profiler.nranks();

  for (int r = 0; r < profiler.nranks(); ++r) {
    for (const auto& [site_id, site] : profiler.rank(r).p2p_sites) {
      out.stats.total_points +=
          site.invocations.size() * static_cast<std::size_t>(mpi::kNumP2pParams);
    }
  }

  const auto classes = trace::equivalence_classes(profiler.contexts());
  out.stats.equivalence_classes = classes.size();
  for (const auto& cls : classes) {
    const int rep = cls.representative();
    for (const auto& [site_id, site] : profiler.rank(rep).p2p_sites) {
      out.stats.after_semantic +=
          site.invocations.size() * static_cast<std::size_t>(mpi::kNumP2pParams);
    }
  }

  for (const auto& cls : classes) {
    const int rep = cls.representative();
    for (const auto& [site_id, site] : profiler.rank(rep).p2p_sites) {
      const auto representatives = profile::stack_representatives(site);
      const auto n_inv = profile::n_invocations(site);
      const auto depth = profile::mean_stack_depth(site);
      const auto n_stacks = profile::n_distinct_stacks(site);
      for (const auto& inv : representatives) {
        for (mpi::P2pParam param : p2p_params()) {
          P2pInjectionPoint point;
          point.site_id = site_id;
          point.kind = site.kind;
          point.site_location = short_location(site);
          point.rank = rep;
          point.invocation = inv.invocation;
          point.param = param;
          point.stack = inv.stack;
          point.phase = inv.phase;
          point.errhal = inv.errhal;
          point.n_inv = n_inv;
          point.stack_depth = depth;
          point.n_diff_stack = n_stacks;
          out.points.push_back(point);
        }
      }
    }
  }
  out.stats.after_context = out.points.size();
  return out;
}

double P2pPointResult::error_rate() const {
  if (trials == 0) return 0.0;
  return 1.0 -
         static_cast<double>(
             counts[static_cast<std::size_t>(inject::Outcome::Success)]) /
             static_cast<double>(trials);
}

double P2pPointResult::fraction(inject::Outcome outcome) const {
  if (trials == 0) return 0.0;
  return static_cast<double>(counts[static_cast<std::size_t>(outcome)]) /
         static_cast<double>(trials);
}

P2pPointResult measure_p2p(Campaign& campaign, const P2pInjectionPoint& point,
                           std::uint32_t trials) {
  P2pPointResult result;
  result.point = point;
  for (std::uint32_t t = 0; t < trials; ++t) {
    inject::P2pFaultSpec spec;
    spec.site_id = point.site_id;
    spec.rank = point.rank;
    spec.invocation = point.invocation;
    spec.param = point.param;
    // P2P studies take the manifestation of the campaign's *first* fault
    // model; the p2p injector has no trigger/message/death machinery.
    const auto& fault = campaign.options().fault_models.front();
    if (!inject::is_parameter_model(fault.model)) {
      // Defense in depth: the CLI rejects this at parse time; direct API
      // callers get the same actionable message here.
      throw ConfigError("measure_p2p: fault model '" + fault.canonical() +
                        "' has no p2p parameter manifestation; supported "
                        "families: " +
                        inject::parameter_fault_model_names());
    }
    spec.model = fault.model;
    spec.trial = t;  // P2pFaultSpec::stream_index mixes in the coordinates

    inject::P2pInjector injector(spec, campaign.options().seed);
    mpi::WorldOptions opts;
    opts.nranks = campaign.options().nranks;
    opts.seed = campaign.options().seed;
    opts.watchdog = campaign.watchdog();
    opts.algorithms = campaign.options().algorithms;
    trace::ContextRegistry contexts(opts.nranks, /*record_call_graph=*/false);
    const auto job =
        apps::run_job(campaign.workload(), opts, &injector, contexts);
    result.record(
        inject::classify(job.world, job.digest, campaign.golden_digest()));
  }
  return result;
}

std::array<double, inject::kNumOutcomes> p2p_outcome_distribution(
    const std::vector<P2pPointResult>& results,
    std::optional<mpi::P2pKind> kind, std::optional<mpi::P2pParam> param) {
  std::array<double, inject::kNumOutcomes> out{};
  std::uint64_t total = 0;
  for (const auto& r : results) {
    if (kind && r.point.kind != *kind) continue;
    if (param && r.point.param != *param) continue;
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      out[o] += r.counts[o];
      total += r.counts[o];
    }
  }
  if (total > 0) {
    for (double& v : out) v /= static_cast<double>(total);
  }
  return out;
}

}  // namespace fastfit::core
