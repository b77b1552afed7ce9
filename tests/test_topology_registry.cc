// Tests for TopologyRegistry: one build per group of overlapping users of
// a key, nothing held once the last lease is gone, and a single build
// under concurrent acquires.
#include "graph/topology_registry.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace seg {
namespace {

// A builder that counts its calls.
struct CountingBuild {
  std::atomic<int>* builds;
  std::shared_ptr<const GraphTopology> operator()(std::string*) const {
    builds->fetch_add(1);
    return std::make_shared<const GraphTopology>(GraphTopology::lollipop(4, 3));
  }
};

TEST(TopologyRegistry, AcquiresOfOneKeyShareOneBuild) {
  TopologyRegistry registry;
  std::atomic<int> builds{0};
  const CountingBuild build{&builds};
  const TopologyRegistry::Lease a = registry.acquire(7, build);
  const TopologyRegistry::Lease b = registry.acquire(7, build);
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(a.graph(), nullptr);
  EXPECT_EQ(a.graph().get(), b.graph().get());
  // Another key gets a build of its own.
  const TopologyRegistry::Lease c = registry.acquire(8, build);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_NE(c.graph().get(), a.graph().get());
}

TEST(TopologyRegistry, LastReleaseErasesTheEntryAndFreesTheGraph) {
  TopologyRegistry registry;
  std::atomic<int> builds{0};
  const CountingBuild build{&builds};
  std::weak_ptr<const GraphTopology> weak;
  {
    const TopologyRegistry::Lease a = registry.acquire(3, build);
    weak = a.graph();
    { const TopologyRegistry::Lease b = registry.acquire(3, build); }
    // `a` still holds the key, so the entry and its graph survive `b`.
    EXPECT_FALSE(weak.expired());
    const TopologyRegistry::Lease c = registry.acquire(3, build);
    EXPECT_EQ(builds.load(), 1);
  }
  // Nothing holds the graph once the last lease is gone: no entry keeps
  // a reference, and the next acquire rebuilds.
  EXPECT_TRUE(weak.expired());
  const TopologyRegistry::Lease again = registry.acquire(3, build);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_NE(again.graph(), nullptr);
}

TEST(TopologyRegistry, FailedBuildIsSharedWithItsError) {
  TopologyRegistry registry;
  int calls = 0;
  auto failing = [&calls](std::string* why) {
    ++calls;
    *why = "no such file";
    return std::shared_ptr<const GraphTopology>();
  };
  const TopologyRegistry::Lease a = registry.acquire(1, failing);
  const TopologyRegistry::Lease b = registry.acquire(1, failing);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(a.graph(), nullptr);
  EXPECT_EQ(b.error(), "no such file");
}

TEST(TopologyRegistry, ConcurrentAcquiresBuildOnce) {
  TopologyRegistry registry;
  std::atomic<int> builds{0};
  std::atomic<int> holding{0};
  constexpr int kThreads = 4;
  std::vector<const GraphTopology*> seen(kThreads, nullptr);
  // A slow build, so the other threads arrive while it runs.
  auto slow_build = [&builds](std::string* why) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return CountingBuild{&builds}(why);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const TopologyRegistry::Lease lease = registry.acquire(42, slow_build);
      seen[t] = lease.graph().get();
      // Hold the lease until every thread has one, so all four overlap.
      holding.fetch_add(1);
      while (holding.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(seen[0], nullptr);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  // The threads' releases erased the entry.
  const TopologyRegistry::Lease after = registry.acquire(42, slow_build);
  EXPECT_EQ(builds.load(), 2);
}

}  // namespace
}  // namespace seg
