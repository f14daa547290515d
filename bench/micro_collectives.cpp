// Microbenchmarks (google-benchmark): the substrate costs that set the
// wall-clock budget of a fault-injection campaign — collective latency by
// algorithm, world spin-up, one full injected trial, and random-forest
// training. These are the ablation knobs DESIGN.md calls out: campaign
// time is dominated by trials-per-point x golden wall time, plus the step
// budget that livelocked trials run to.

#include <benchmark/benchmark.h>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "ml/random_forest.hpp"
#include "minimpi/mpi.hpp"
#include "support/rng.hpp"

namespace {

using namespace fastfit;

mpi::WorldOptions world_opts(int n) {
  mpi::WorldOptions o;
  o.nranks = n;
  return o;
}

void BM_WorldSpinUp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::World world(world_opts(n));
    benchmark::DoNotOptimize(world.run([](mpi::Mpi&) {}));
  }
}
BENCHMARK(BM_WorldSpinUp)->Arg(4)->Arg(16)->Arg(32);

void BM_Barrier(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int reps = 32;
  for (auto _ : state) {
    mpi::World world(world_opts(n));
    world.run([reps](mpi::Mpi& mpi) {
      for (int i = 0; i < reps; ++i) mpi.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_Barrier)->Arg(4)->Arg(16)->Arg(32);

void BM_Allreduce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto count = static_cast<std::int32_t>(state.range(1));
  const int reps = 16;
  for (auto _ : state) {
    mpi::World world(world_opts(n));
    world.run([count, reps](mpi::Mpi& mpi) {
      mpi::RegisteredBuffer<double> send(
          mpi.registry(), static_cast<std::size_t>(count), 1.0);
      mpi::RegisteredBuffer<double> recv(mpi.registry(),
                                         static_cast<std::size_t>(count));
      for (int i = 0; i < reps; ++i) {
        mpi.allreduce(send.data(), recv.data(), count, mpi::kDouble,
                      mpi::kSum);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * reps);
  state.SetBytesProcessed(state.iterations() * reps *
                          static_cast<std::int64_t>(count) * 8 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Allreduce)->Args({8, 16})->Args({8, 1024})->Args({32, 16});

void BM_Alltoall(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int reps = 8;
  for (auto _ : state) {
    mpi::World world(world_opts(n));
    world.run([n, reps](mpi::Mpi& mpi) {
      mpi::RegisteredBuffer<double> send(
          mpi.registry(), static_cast<std::size_t>(8 * n), 1.0);
      mpi::RegisteredBuffer<double> recv(mpi.registry(),
                                         static_cast<std::size_t>(8 * n));
      for (int i = 0; i < reps; ++i) {
        mpi.alltoall(send.data(), 8, mpi::kDouble, recv.data(), 8,
                     mpi::kDouble);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * reps);
}
BENCHMARK(BM_Alltoall)->Arg(8)->Arg(16);

void BM_GoldenRun(benchmark::State& state) {
  const auto workload = apps::make_workload("LU");
  for (auto _ : state) {
    trace::ContextRegistry contexts(8);
    benchmark::DoNotOptimize(
        apps::run_job(*workload, world_opts(8), nullptr, contexts));
  }
}
BENCHMARK(BM_GoldenRun);

void BM_InjectedTrial(benchmark::State& state) {
  const auto workload = apps::make_workload("LU");
  core::CampaignOptions options;
  options.nranks = 8;
  options.trials_per_point = 1;
  const auto driver = bench::profiled_driver(*workload, options);
  auto& campaign = driver->campaign();
  const auto& point = campaign.enumeration().points.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign.measure(point, 1));
  }
}
BENCHMARK(BM_InjectedTrial);

void BM_ForestTrain(benchmark::State& state) {
  ml::Dataset data(4);
  RngStream rng(1, "bench-data");
  for (int i = 0; i < 400; ++i) {
    ml::FeatureVec x{};
    for (auto& v : x) v = rng.uniform() * 10;
    data.add(x, rng.index(4));
  }
  ml::ForestConfig config;
  config.n_trees = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::RandomForest::train(data, config));
  }
}
BENCHMARK(BM_ForestTrain)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
