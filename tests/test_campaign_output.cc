// Campaign output pins: the aggregate CSV bytes of small built-in runs,
// hashed with FNV-1a and frozen, so a measurement shortcut that changes a
// single digit of any column fails here by name. The pinned values come
// from the full-scan measurement (every almost-mono radius, every
// covering center, a flip observer behind every streaming_* column);
// the exact cutoffs must reproduce them byte for byte.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/builtin.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "golden_fixtures.h"

namespace seg {
namespace {

// Runs built-in `name` from its base spec, adjusted by `edit`, the way
// campaign_runner does (base, keys, finish), and hashes the CSV.
template <typename Edit>
std::uint64_t csv_hash(const char* name, Edit edit, std::size_t threads) {
  const Builtin* builtin = find_builtin(name);
  EXPECT_NE(builtin, nullptr) << name;
  BuiltinCampaign campaign;
  campaign.spec = builtin->base();
  edit(campaign.spec);
  std::string why;
  EXPECT_TRUE(builtin->valid(campaign.spec, &why)) << why;
  builtin->finish(&campaign);
  CampaignOptions options;
  options.threads = threads;
  const CampaignResult result =
      run_campaign(campaign.spec, campaign.points, campaign.metric_names,
                   campaign.replica, 37, options);
  EXPECT_TRUE(result.complete);
  const std::string csv = CsvSink::render(campaign.spec, result);
  return golden::hash_bytes(csv.data(), csv.size());
}

void small_region(ScenarioSpec& spec) {
  spec.w = {1, 2, 3};
  spec.replicas = 3;
}

TEST(CampaignOutput, RegionSizeCsvPinned) {
  constexpr std::uint64_t kPinned = 0xca0558c6b74b3c84ull;
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(csv_hash("region_size", small_region, threads), kPinned)
        << threads << " workers";
  }
}

TEST(CampaignOutput, ShardedRegionSizeCsvPinned) {
  // Re-pinned when the sharded Glauber process moved the boundary band
  // onto its own chain; the serial pins above are unchanged.
  constexpr std::uint64_t kPinned = 0xb0ae175d86c1451full;
  const auto sharded = [](ScenarioSpec& spec) {
    small_region(spec);
    spec.shards = 2;
  };
  EXPECT_EQ(csv_hash("region_size", sharded, 4), kPinned);
}

TEST(CampaignOutput, PhaseDiagramCsvPinned) {
  constexpr std::uint64_t kPinned = 0x582a026b75c79127ull;
  const auto small = [](ScenarioSpec& spec) { spec.replicas = 3; };
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(csv_hash("phase_diagram", small, threads), kPinned)
        << threads << " workers";
  }
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// streaming_autocorr_lag1 attaches the engine, which must leave the
// trajectory unchanged and serve the cluster columns with the same bits
// as the final-configuration rescan, for every dynamics and for the
// sharded replay path.
TEST(CampaignOutput, StreamingColumnsEqualWithAndWithoutObserver) {
  ScenarioSpec spec;
  spec.n = {24, 40};
  spec.w = {1, 2};
  spec.tau = {0.4, 0.55};
  spec.p = {0.5, 0.35};
  spec.dynamics = {DynamicsKind::kGlauber, DynamicsKind::kDiscrete,
                   DynamicsKind::kSynchronous};
  spec.metrics = {"streaming_magnetization", "streaming_interface_length",
                  "streaming_cluster_count", "streaming_largest_cluster",
                  "streaming_mean_cluster_size"};
  for (const std::size_t shards : {1u, 2u}) {
    spec.shards = shards;
    ScenarioSpec observed = spec;
    observed.metrics.push_back("streaming_autocorr_lag1");
    ASSERT_TRUE(spec.valid());
    ASSERT_TRUE(observed.valid());
    const ReplicaFn plain = make_schelling_replica(spec);
    const ReplicaFn traced = make_schelling_replica(observed);
    for (const ScenarioPoint& pt : expand_grid(spec)) {
      for (std::size_t r = 0; r < 2; ++r) {
        const std::uint64_t seed = derive_replica_seed(11, pt.index * 2 + r);
        const std::vector<double> a = plain(pt, r, seed);
        const std::vector<double> b = traced(pt, r, seed);
        ASSERT_EQ(a.size() + 1, b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_TRUE(bitwise_equal(a[i], b[i]))
              << spec.metrics[i] << " at point " << pt.index << " replica "
              << r << " shards " << shards << ": " << a[i] << " vs " << b[i];
        }
      }
    }
  }
}

// streaming_magnetization is a popcount of the final packed spins; it
// must equal the plain sum of the +-1 spins, on widths that leave a
// partial last word and on ones that do not.
TEST(CampaignOutput, StreamingMagnetizationIsSpinSum) {
  MetricFn fn = nullptr;
  ASSERT_TRUE(lookup_metric("streaming_magnetization", &fn));
  const ScenarioSpec spec;
  for (const int n : {24, 40, 64}) {
    for (const double p : {0.5, 0.3}) {
      ModelParams params{.n = n, .w = 1, .tau = 0.45, .p = p};
      Rng init(static_cast<std::uint64_t>(n));
      SchellingModel model(params, init);
      Rng dyn(7);
      const RunResult run = run_glauber(model, dyn);
      Rng sample(8);
      MetricContext ctx(model, run, spec, sample);
      std::int64_t sum = 0;
      for (const std::int8_t s : model.spins()) sum += s;
      EXPECT_EQ(fn(ctx), static_cast<double>(sum)) << "n=" << n
                                                   << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace seg
