#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace seg {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadTeam, EachIndexRunsOnItsOwnThreadEveryRound) {
  ThreadTeam team(3, 7);
  EXPECT_EQ(team.width(), 3u);
  std::vector<std::thread::id> first(7), seen(7);
  std::vector<int> hits(7, 0);
  for (int round = 0; round < 50; ++round) {
    team.run([&](std::size_t i) {
      seen[i] = std::this_thread::get_id();
      ++hits[i];
    });
    if (round == 0) first = seen;
    EXPECT_EQ(seen, first) << "round " << round;
  }
  for (const int h : hits) EXPECT_EQ(h, 50);
  // Index i runs on thread i % width; index 0 on the caller.
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_EQ(first[3], first[0]);
  EXPECT_EQ(first[4], first[1]);
  EXPECT_NE(first[1], first[0]);
  EXPECT_NE(first[2], first[1]);
}

TEST(ThreadTeam, WidthClampsToCount) {
  EXPECT_EQ(ThreadTeam(8, 2).width(), 2u);
  EXPECT_EQ(ThreadTeam(0, 2).width(), 1u);
  ThreadTeam empty(4, 0);
  EXPECT_EQ(empty.width(), 1u);
  int calls = 0;
  empty.run([&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(RunTrials, ThreadCountDoesNotChangeResults) {
  const auto metric = [](std::size_t, Rng& rng) {
    double acc = 0;
    for (int i = 0; i < 10; ++i) acc += rng.uniform();
    return acc;
  };
  const RunningStats serial = run_trials(32, 99, metric, 1);
  const RunningStats threaded = run_trials(32, 99, metric, 4);
  EXPECT_EQ(serial.count(), threaded.count());
  EXPECT_DOUBLE_EQ(serial.mean(), threaded.mean());
  EXPECT_DOUBLE_EQ(serial.variance(), threaded.variance());
}

TEST(RunTrials, DistinctSeedsGiveDistinctStreams) {
  const auto metric = [](std::size_t, Rng& rng) { return rng.uniform(); };
  const RunningStats a = run_trials(8, 1, metric, 1);
  const RunningStats b = run_trials(8, 2, metric, 1);
  EXPECT_NE(a.mean(), b.mean());
}

}  // namespace
}  // namespace seg
