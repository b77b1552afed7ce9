// AgentSet contract tests: O(1) swap-erase bookkeeping, idempotent edge
// cases, and — critically for the dynamics — uniformity of sample(),
// which realizes the Poisson-clock law.
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "lattice/agent_set.h"

namespace seg {
namespace {

TEST(AgentSet, DoubleInsertKeepsSingleCopy) {
  AgentSet s(8);
  s.insert(3);
  s.insert(3);
  s.insert(3);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(3));
  s.erase(3);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(3));
}

TEST(AgentSet, EraseAbsentIsNoOp) {
  AgentSet s(8);
  s.insert(1);
  s.insert(5);
  s.erase(2);   // never inserted
  s.erase(7);   // never inserted
  EXPECT_EQ(s.size(), 2u);
  s.erase(5);
  s.erase(5);   // already gone
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(1));
}

TEST(AgentSet, EraseReinsertCycleStaysConsistent) {
  AgentSet s(4);
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t id = 0; id < 4; ++id) s.insert(id);
    EXPECT_EQ(s.size(), 4u);
    for (std::uint32_t id = 0; id < 4; ++id) s.erase(id);
    EXPECT_TRUE(s.empty());
  }
}

TEST(AgentSet, RandomizedMirrorsReferenceSet) {
  const std::uint32_t capacity = 64;
  AgentSet s(capacity);
  std::unordered_set<std::uint32_t> reference;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_below(capacity));
    if (rng.bernoulli(0.5)) {
      s.insert(id);
      reference.insert(id);
    } else {
      s.erase(id);
      reference.erase(id);
    }
    ASSERT_EQ(s.size(), reference.size());
    ASSERT_EQ(s.contains(id), reference.count(id) == 1);
  }
  for (std::uint32_t id = 0; id < capacity; ++id) {
    ASSERT_EQ(s.contains(id), reference.count(id) == 1);
  }
}

// Chi-square goodness of fit for sample() uniformity, after churn that
// scrambles the internal item order. With k - 1 = 19 degrees of freedom
// the 99.9th percentile is 43.8; the fixed seed keeps the test
// deterministic, and a systematically biased sampler (e.g. modulo bias
// or stale positions after swap-erase) blows far past the bound.
TEST(AgentSet, SampleIsUniformChiSquare) {
  const std::uint32_t capacity = 256;
  AgentSet s(capacity);
  Rng churn(7);
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<std::uint32_t>(churn.uniform_below(capacity));
    if (churn.bernoulli(0.6)) {
      s.insert(id);
    } else {
      s.erase(id);
    }
  }
  // Reduce to exactly 20 members.
  std::vector<std::uint32_t> members(s.items().begin(), s.items().end());
  for (const std::uint32_t id : members) {
    if (s.size() > 20) s.erase(id);
  }
  while (s.size() < 20) {
    s.insert(static_cast<std::uint32_t>(churn.uniform_below(capacity)));
  }
  ASSERT_EQ(s.size(), 20u);

  const int draws = 40000;
  const double expected = static_cast<double>(draws) / 20.0;
  std::vector<int> observed(capacity, 0);
  Rng rng(1234);
  for (int i = 0; i < draws; ++i) {
    const std::uint32_t id = s.sample(rng);
    ASSERT_TRUE(s.contains(id));
    ++observed[id];
  }
  double chi2 = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double diff = observed[s.at(i)] - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 43.8) << "sample() deviates from uniform";
  // Every member must actually be reachable.
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GT(observed[s.at(i)], 0);
  }
}

// The band split: random band/interior inserts and erases on a windowed
// set mirror a reference map, the band part stays the items prefix, and
// interior sampling only ever returns interior members.
TEST(AgentSet, BandSplitMirrorsReference) {
  const std::uint32_t base = 1000;
  const std::uint32_t capacity = 48;
  AgentSet s(capacity, base);
  std::unordered_map<std::uint32_t, bool> reference;  // id -> in band
  Rng rng(21);
  for (int step = 0; step < 20000; ++step) {
    const auto id =
        base + static_cast<std::uint32_t>(rng.uniform_below(capacity));
    // A site's part is fixed, as shard_boundary(id) is: even ids are band.
    const bool band = id % 2 == 0;
    if (rng.bernoulli(0.5)) {
      band ? s.insert_band(id) : s.insert(id);
      reference[id] = band;
    } else {
      band ? s.erase_band(id) : s.erase(id);
      reference.erase(id);
    }
    std::size_t band_members = 0;
    for (const auto& entry : reference) band_members += entry.second;
    ASSERT_EQ(s.size(), reference.size());
    ASSERT_EQ(s.band_size(), band_members);
    ASSERT_EQ(s.interior_size(), reference.size() - band_members);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint32_t member = s.at(i);
      ASSERT_EQ(reference.count(member), 1u);
      ASSERT_EQ(i < s.band_size(), reference[member]) << "slot " << i;
      ASSERT_EQ(s.in_band(member), reference[member]);
    }
    if (s.interior_size() > 0) {
      const std::uint32_t drawn = s.sample_interior(rng);
      ASSERT_TRUE(s.contains(drawn));
      ASSERT_FALSE(s.in_band(drawn));
    }
  }
  for (std::uint32_t id = base; id < base + capacity; ++id) {
    ASSERT_EQ(s.contains(id), reference.count(id) == 1);
  }
  EXPECT_FALSE(s.in_band(base + capacity + 5));  // outside the window
}

// Without a band, sample_interior is sample(): same draws, same items.
TEST(AgentSet, InteriorSampleWithoutBandIsSample) {
  AgentSet s(64);
  for (std::uint32_t id = 0; id < 64; id += 3) s.insert(id);
  s.erase(9);
  Rng a(5), b(5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(s.sample_interior(a), s.sample(b));
  }
}

}  // namespace
}  // namespace seg
