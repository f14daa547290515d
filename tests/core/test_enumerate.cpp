// Injection-point enumeration and pruning accounting.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "core/enumerate.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

Enumeration enumerate_workload(const std::string& name, int nranks) {
  const auto workload = apps::make_workload(name);
  trace::ContextRegistry contexts(nranks);
  profile::Profiler profiler(contexts);
  mpi::WorldOptions opts;
  opts.nranks = nranks;
  const auto job = apps::run_job(*workload, opts, &profiler, contexts);
  EXPECT_TRUE(job.world.clean());
  return enumerate_points(profiler);
}

TEST(Enumerate, PruningCountsAreMonotone) {
  for (const auto& name : apps::workload_names()) {
    const auto e = enumerate_workload(name, 8);
    EXPECT_GT(e.stats.total_points, 0u) << name;
    EXPECT_LE(e.stats.after_semantic, e.stats.total_points) << name;
    EXPECT_LE(e.stats.after_context, e.stats.after_semantic) << name;
    EXPECT_EQ(e.stats.after_context, e.points.size()) << name;
  }
}

TEST(Enumerate, SemanticReductionGrowsWithRankCount) {
  // More ranks, same equivalence classes: the semantic win scales — the
  // paper's core scaling argument (96-97% at 32 ranks).
  const auto e8 = enumerate_workload("LU", 8);
  const auto e32 = enumerate_workload("LU", 32);
  EXPECT_GT(e32.stats.semantic_reduction(), e8.stats.semantic_reduction());
  EXPECT_GE(e32.stats.semantic_reduction(), 0.90);
}

TEST(Enumerate, ReductionFormulas) {
  PruningStats s;
  s.total_points = 1000;
  s.after_semantic = 100;
  s.after_context = 40;
  EXPECT_DOUBLE_EQ(s.semantic_reduction(), 0.9);
  EXPECT_DOUBLE_EQ(s.context_reduction(), 0.6);
  EXPECT_DOUBLE_EQ(s.structural_reduction(), 0.96);
  PruningStats zero;
  EXPECT_EQ(zero.semantic_reduction(), 0.0);
  EXPECT_EQ(zero.context_reduction(), 0.0);
}

TEST(Enumerate, PointsCarryFeatures) {
  const auto e = enumerate_workload("miniMD", 8);
  bool saw_errhal = false;
  bool saw_compute_phase = false;
  for (const auto& p : e.points) {
    EXPECT_GT(p.n_inv, 0u);
    EXPECT_GE(p.n_diff_stack, 1u);
    EXPECT_FALSE(p.site_location.empty());
    saw_errhal |= p.errhal;
    saw_compute_phase |= (p.phase == trace::ExecPhase::Compute);
    // The feature vector must mirror the point fields.
    const auto x = p.features();
    EXPECT_EQ(x[static_cast<std::size_t>(ml::Feature::ErrHal)],
              p.errhal ? 1.0 : 0.0);
    EXPECT_EQ(x[static_cast<std::size_t>(ml::Feature::NInv)],
              static_cast<double>(p.n_inv));
  }
  EXPECT_TRUE(saw_errhal);
  EXPECT_TRUE(saw_compute_phase);
}

TEST(Enumerate, RepresentativesComeFromDistinctClasses) {
  const auto e = enumerate_workload("FT", 8);
  EXPECT_GE(e.classes.size(), 2u);  // root class + bulk class
  std::set<int> reps;
  for (const auto& p : e.points) reps.insert(p.rank);
  EXPECT_EQ(reps.size(), e.classes.size());
}

TEST(Enumerate, EveryPointParamIsInjectableForItsKind) {
  const auto e = enumerate_workload("IS", 8);
  for (const auto& p : e.points) {
    const auto params = mpi::injectable_params(p.kind);
    EXPECT_NE(std::find(params.begin(), params.end(), p.param), params.end());
  }
}

TEST(Enumerate, BarrierContributesOnlyCommParam) {
  const auto e = enumerate_workload("MG", 8);
  bool saw_barrier = false;
  for (const auto& p : e.points) {
    if (p.kind == mpi::CollectiveKind::Barrier) {
      saw_barrier = true;
      EXPECT_EQ(p.param, mpi::Param::Comm);
    }
  }
  EXPECT_TRUE(saw_barrier);
}

}  // namespace
}  // namespace fastfit::core
