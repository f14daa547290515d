#include "pmpi/chain.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "minimpi/mpi.hpp"
#include "support/error.hpp"

namespace fastfit::pmpi {
namespace {

using namespace std::chrono_literals;

/// Appends a token on enter/exit so ordering is observable.
class Tagger : public mpi::ToolHooks {
 public:
  Tagger(std::vector<std::string>& log, std::mutex& mutex, std::string name)
      : log_(&log), mutex_(&mutex), name_(std::move(name)) {}
  void on_enter(mpi::CollectiveCall&, mpi::Mpi&) override {
    std::lock_guard lock(*mutex_);
    log_->push_back(name_ + ":enter");
  }
  void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {
    std::lock_guard lock(*mutex_);
    log_->push_back(name_ + ":exit");
  }

 private:
  std::vector<std::string>* log_;
  std::mutex* mutex_;
  std::string name_;
};

TEST(HookChain, EnterInOrderExitReversed) {
  std::vector<std::string> log;
  std::mutex mutex;
  Tagger profiler(log, mutex, "profiler");
  Tagger injector(log, mutex, "injector");
  HookChain chain;
  chain.add(&profiler);
  chain.add(&injector);
  EXPECT_EQ(chain.size(), 2u);

  mpi::WorldOptions opts;
  opts.nranks = 1;
  mpi::World world(opts);
  world.set_tools(&chain);
  world.run([](mpi::Mpi& mpi) { mpi.barrier(); });

  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "profiler:enter");
  EXPECT_EQ(log[1], "injector:enter");
  EXPECT_EQ(log[2], "injector:exit");
  EXPECT_EQ(log[3], "profiler:exit");
}

TEST(HookChain, EmptyChainIsTransparent) {
  HookChain chain;
  mpi::WorldOptions opts;
  opts.nranks = 2;
  mpi::World world(opts);
  world.set_tools(&chain);
  EXPECT_TRUE(world.run([](mpi::Mpi& mpi) {
    const auto v = mpi.allreduce_value<std::int32_t>(1, mpi::kSum);
    EXPECT_EQ(v, 2);
  }).clean());
}

TEST(HookChain, NullToolRejected) {
  HookChain chain;
  EXPECT_THROW(chain.add(nullptr), InternalError);
}

TEST(HookChain, EarlierToolsSeePristineCallLaterToolsSeeMutations) {
  // First tool records, second corrupts: the record must predate the
  // corruption; a third tool added after must see the corrupted value.
  struct Recorder : mpi::ToolHooks {
    void on_enter(mpi::CollectiveCall& call, mpi::Mpi&) override {
      seen.store(call.count);
    }
    void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
    std::atomic<std::int32_t> seen{-1};
  };
  struct Corruptor : mpi::ToolHooks {
    void on_enter(mpi::CollectiveCall& call, mpi::Mpi&) override {
      call.count = 0;
    }
    void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
  };
  Recorder before;
  Corruptor corruptor;
  Recorder after;
  HookChain chain;
  chain.add(&before);
  chain.add(&corruptor);
  chain.add(&after);

  mpi::WorldOptions opts;
  opts.nranks = 1;
  mpi::World world(opts);
  world.set_tools(&chain);
  world.run([](mpi::Mpi& mpi) {
    mpi::RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
    mpi.allreduce(buf.data(), buf.data(), 4, mpi::kDouble, mpi::kSum);
  });
  EXPECT_EQ(before.seen.load(), 4);
  EXPECT_EQ(after.seen.load(), 0);
}

}  // namespace
}  // namespace fastfit::pmpi
