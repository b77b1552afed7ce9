#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "campaign/builtin.h"
#include "campaign/checkpoint.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "core/comfort.h"

namespace seg {
namespace {

// Small but non-trivial Schelling campaign: 2x2 grid of (tau, p), a few
// replicas, cheap dynamics.
ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "test_small";
  spec.n = {24};
  spec.w = {1};
  spec.tau = {0.40, 0.45};
  spec.p = {0.5, 0.7};
  spec.replicas = 5;
  spec.region_samples = 8;
  spec.metrics = {"flips", "fixation", "majority", "mean_mono_region"};
  return spec;
}

void expect_bitwise_equal(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.metric_names, b.metric_names);
  EXPECT_EQ(a.replicas_done, b.replicas_done);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    for (std::size_t m = 0; m < a.metric_names.size(); ++m) {
      const RunningStats& sa = a.points[i].stats[m];
      const RunningStats& sb = b.points[i].stats[m];
      ASSERT_EQ(sa.count(), sb.count()) << "point " << i << " metric " << m;
      // Bitwise: fold order must be identical, not merely close.
      EXPECT_EQ(sa.mean(), sb.mean()) << "point " << i << " metric " << m;
      EXPECT_EQ(sa.variance(), sb.variance())
          << "point " << i << " metric " << m;
      EXPECT_EQ(sa.min(), sb.min());
      EXPECT_EQ(sa.max(), sb.max());
    }
  }
}

TEST(Scenario, GridExpansionOrderAndCount) {
  ScenarioSpec spec = small_spec();
  EXPECT_EQ(spec.grid_size(), 4u);
  EXPECT_EQ(spec.total_replicas(), 20u);
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 4u);
  // tau is an outer axis relative to p.
  EXPECT_DOUBLE_EQ(points[0].params.tau, 0.40);
  EXPECT_DOUBLE_EQ(points[0].params.p, 0.5);
  EXPECT_DOUBLE_EQ(points[1].params.tau, 0.40);
  EXPECT_DOUBLE_EQ(points[1].params.p, 0.7);
  EXPECT_DOUBLE_EQ(points[2].params.tau, 0.45);
  EXPECT_DOUBLE_EQ(points[3].params.p, 0.7);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
}

TEST(Scenario, TextRoundTrip) {
  ScenarioSpec spec = small_spec();
  spec.dynamics = {DynamicsKind::kGlauber, DynamicsKind::kDiscrete};
  spec.shape = {NeighborhoodShape::kVonNeumann};
  spec.tau_minus = {0.35};
  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(spec.to_text(), &back, &error)) << error;
  EXPECT_EQ(spec.to_text(), back.to_text());
  EXPECT_EQ(spec.hash(), back.hash());
}

TEST(Scenario, ShardsRoundTripAndDefaultKeepsLegacyHash) {
  // shards = 1 (the default) must stay out of the canonical text so
  // pre-sharding specs — and their checkpoints, keyed by hash() — are
  // unaffected; non-default shard counts are part of the identity.
  ScenarioSpec serial = small_spec();
  EXPECT_EQ(serial.to_text().find("shards"), std::string::npos);
  ScenarioSpec sharded = small_spec();
  sharded.shards = 4;
  EXPECT_NE(sharded.to_text().find("shards = 4"), std::string::npos);
  EXPECT_NE(serial.hash(), sharded.hash());
  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(sharded.to_text(), &back, &error))
      << error;
  EXPECT_EQ(back.shards, 4u);
  EXPECT_EQ(sharded.to_text(), back.to_text());
  EXPECT_FALSE(ScenarioSpec::parse("shards = 0\n", &back, &error));
}

TEST(Scenario, ParseRejectsUnknownMetricAndKey) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("metrics = no_such_metric\n", &spec,
                                   &error));
  EXPECT_NE(error.find("no_such_metric"), std::string::npos);
  EXPECT_FALSE(ScenarioSpec::parse("frobnicate = 3\n", &spec, &error));
}

TEST(Scenario, RejectsWindowsBeyondInt16Counts) {
  // The engine counts windows in int16: w = 90 (181^2 = 32761 sites) is
  // the largest Moore horizon; w = 91 must be refused with the limit
  // named, by the spec layer and by the params themselves.
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse("n = 200\nw = 90\n", &spec, &error))
      << error;
  EXPECT_FALSE(ScenarioSpec::parse("n = 200\nw = 2, 91\n", &spec, &error));
  EXPECT_NE(error.find("w = 91"), std::string::npos) << error;
  EXPECT_NE(error.find("32767"), std::string::npos) << error;
  ModelParams params{.n = 200, .w = 90};
  EXPECT_TRUE(params.valid());
  params.w = 91;
  EXPECT_FALSE(params.valid());
  ComfortParams comfort{.n = 200, .w = 90};
  EXPECT_TRUE(comfort.valid());
  comfort.w = 91;
  EXPECT_FALSE(comfort.valid());
}

TEST(Scenario, ParseAcceptsCommentsAndSpecFileShape) {
  const std::string text =
      "# comment\n"
      "name = sweep\n"
      "n = 16, 24\n"
      "tau = 0.4\n"
      "replicas = 2\n"
      "metrics = flips, majority\n";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(text, &spec, &error)) << error;
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.n, (std::vector<int>{16, 24}));
  EXPECT_EQ(spec.replicas, 2u);
  EXPECT_EQ(spec.metrics, (std::vector<std::string>{"flips", "majority"}));
}

// Sets every one of the spec's keys to a non-default value.
ScenarioSpec every_key_spec() {
  ScenarioSpec spec;
  spec.name = "every_key";
  spec.n = {20, 30};
  spec.w = {1, 3};
  spec.tau = {0.35, 0.4};
  spec.tau_minus = {0.3};
  spec.p = {0.45, 0.6};
  spec.shape = {NeighborhoodShape::kVonNeumann, NeighborhoodShape::kMoore};
  spec.dynamics = {DynamicsKind::kDiscrete, DynamicsKind::kSynchronous};
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kRandomRegular,
                   TopologyFamily::kSmallWorld, TopologyFamily::kEdgeList};
  spec.graph_clique = 12;
  spec.graph_path = 7;
  spec.graph_degree = 6;
  spec.graph_beta = 0.25;
  spec.graph_seed = 99;
  spec.graph_nodes = 500;
  spec.graph_file = "city.edges";
  spec.replicas = 9;
  spec.shards = 2;
  spec.max_flips = 5000;
  spec.streaming_sample_every = 128;
  spec.sync_max_rounds = 77;
  spec.region_samples = 5;
  spec.almost_eps = 0.2;
  spec.metrics = {"flips", "majority"};
  spec.stop.rule = StopRule::kPassRate;
  spec.stop.delta = 0.1;
  spec.stop.alpha = 0.01;
  spec.stop.min_replicas = 4;
  spec.stop.max_replicas = 12;
  spec.stop.metric = "majority";
  spec.stop.range_lo = -1.0;
  spec.stop.range_hi = 2.0;
  spec.stop.threshold = 0.25;
  return spec;
}

// Checkpoints are keyed by hash(), so these bytes are the resume
// contract: a change here orphans every checkpoint written before it.
TEST(Scenario, CanonicalTextAndHashArePinned) {
  struct Pin {
    const char* name;
    std::uint64_t hash;
    const char* text;
  };
  const Pin pins[] = {
    {"phase_diagram", 0x37634e07fa5126ccULL,
     "name = phase_diagram\n"
     "n = 64\n"
     "w = 2\n"
     "tau = 0.29999999999999999,0.35999999999999999,0.40000000000000002,0.44,"
     "0.47999999999999998,0.5\n"
     "tau_minus = -1\n"
     "p = 0.5,0.55000000000000004,0.59999999999999998,0.69999999999999996,"
     "0.80000000000000004,0.90000000000000002\n"
     "shape = moore\n"
     "dynamics = glauber\n"
     "replicas = 3\n"
     "max_flips = 0\n"
     "sync_max_rounds = 4096\n"
     "region_samples = 16\n"
     "almost_eps = 0.10000000000000001\n"
     "metrics = mean_mono_region,fixation,majority,flips\n"},
    {"region_size", 0xd5cbf0cb755d2ef1ULL,
     "name = region_size\n"
     "n = 64\n"
     "w = 1,2,3,4,5\n"
     "tau = 0.45000000000000001,0.40000000000000002,0.55000000000000004\n"
     "tau_minus = -1\n"
     "p = 0.5\n"
     "shape = moore\n"
     "dynamics = glauber\n"
     "replicas = 3\n"
     "max_flips = 0\n"
     "sync_max_rounds = 4096\n"
     "region_samples = 24\n"
     "almost_eps = 0.10000000000000001\n"
     "metrics = mean_mono_region,mean_almost_region,streaming_largest_cluster,"
     "streaming_interface_length\n"},
    {"percolation_stretch", 0xc3197901799e874fULL,
     "name = percolation_stretch\n"
     "n = 192\n"
     "w = 2\n"
     "tau = 0.45000000000000001\n"
     "tau_minus = -1\n"
     "p = 0.65000000000000002,0.69999999999999996,0.75,0.84999999999999998,"
     "0.94999999999999996\n"
     "shape = moore\n"
     "dynamics = glauber\n"
     "replicas = 24\n"
     "max_flips = 0\n"
     "sync_max_rounds = 4096\n"
     "region_samples = 16\n"
     "almost_eps = 0.10000000000000001\n"
     "metrics = connected,stretch,tail_125\n"},
    {"percolation_radius", 0x89c927d826a1e0edULL,
     "name = percolation_radius\n"
     "n = 61\n"
     "w = 2\n"
     "tau = 0.45000000000000001\n"
     "tau_minus = -1\n"
     "p = 0.29999999999999999,0.40000000000000002,0.5\n"
     "shape = moore\n"
     "dynamics = glauber\n"
     "replicas = 400\n"
     "max_flips = 0\n"
     "sync_max_rounds = 4096\n"
     "region_samples = 16\n"
     "almost_eps = 0.10000000000000001\n"
     "metrics = open,r_ge_2,r_ge_4,r_ge_8,r_ge_16\n"},
    {"graph_topologies", 0x5647fa8241aaebe5ULL,
     "name = graph_topologies\n"
     "n = 32\n"
     "w = 1\n"
     "tau = 0.34999999999999998,0.45000000000000001\n"
     "tau_minus = -1\n"
     "p = 0.5\n"
     "shape = moore\n"
     "dynamics = glauber\n"
     "topology = lollipop,random_regular,small_world\n"
     "graph_nodes = 1024\n"
     "replicas = 3\n"
     "max_flips = 200000\n"
     "sync_max_rounds = 4096\n"
     "region_samples = 16\n"
     "almost_eps = 0.10000000000000001\n"
     "metrics = flips,terminated,majority,happy_fraction,plus_fraction\n"},
    {"every_key", 0x8a0d178d26f4dee0ULL,
     "name = every_key\n"
     "n = 20,30\n"
     "w = 1,3\n"
     "tau = 0.34999999999999998,0.40000000000000002\n"
     "tau_minus = 0.29999999999999999\n"
     "p = 0.45000000000000001,0.59999999999999998\n"
     "shape = von_neumann,moore\n"
     "dynamics = discrete,synchronous\n"
     "topology = lollipop,random_regular,small_world,edge_list\n"
     "graph_clique = 12\n"
     "graph_path = 7\n"
     "graph_degree = 6\n"
     "graph_beta = 0.25\n"
     "graph_seed = 99\n"
     "graph_nodes = 500\n"
     "graph_file = city.edges\n"
     "replicas = 9\n"
     "shards = 2\n"
     "max_flips = 5000\n"
     "streaming_sample_every = 128\n"
     "sync_max_rounds = 77\n"
     "region_samples = 5\n"
     "almost_eps = 0.20000000000000001\n"
     "metrics = flips,majority\n"
     "stop_rule = pass_rate\n"
     "stop_delta = 0.10000000000000001\n"
     "stop_alpha = 0.01\n"
     "min_replicas = 4\n"
     "max_replicas = 12\n"
     "stop_metric = majority\n"
     "stop_range = -1,2\n"
     "stop_threshold = 0.25\n"},
  };
  for (const Pin& pin : pins) {
    ScenarioSpec spec;
    if (std::string(pin.name) == "every_key") {
      spec = every_key_spec();
    } else {
      BuiltinCampaign campaign;
      ASSERT_TRUE(make_builtin_campaign(pin.name, {}, &campaign)) << pin.name;
      spec = campaign.spec;
    }
    EXPECT_EQ(spec.to_text(), pin.text) << pin.name;
    EXPECT_EQ(spec.hash(), pin.hash) << pin.name;
  }
  EXPECT_EQ(std::size(pins), builtin_campaign_names().size() + 1);
}

TEST(Scenario, EveryKeyRoundTripsThroughSetAndParse) {
  // One non-default value per key. A key added to the table without a
  // value here fails the size check.
  const std::map<std::string, std::string> values = {
      {"name", "sweep"}, {"n", "20, 24"}, {"w", "1,3"},
      {"tau", "0.3,0.5"}, {"tau_minus", "0.35"}, {"p", "0.6"},
      {"shape", "von_neumann"}, {"dynamics", "discrete,synchronous"},
      {"topology", "lollipop, small_world"}, {"graph_clique", "10"},
      {"graph_path", "5"}, {"graph_degree", "6"}, {"graph_beta", "0.5"},
      {"graph_seed", "17"}, {"graph_nodes", "300"},
      {"graph_file", "city.edges"}, {"replicas", "7"}, {"shards", "2"},
      {"max_flips", "1000"}, {"streaming_sample_every", "64"},
      {"sync_max_rounds", "12"}, {"region_samples", "4"},
      {"almost_eps", "0.2"}, {"metrics", "flips, happy_fraction"},
      {"stop_rule", "bernstein"}, {"stop_delta", "0.1"},
      {"stop_alpha", "0.02"}, {"min_replicas", "3"},
      {"max_replicas", "20"}, {"stop_metric", "flips"},
      {"stop_range", "-2, 3"}, {"stop_threshold", "0.75"},
  };
  ASSERT_EQ(spec_keys().size(), 32u);
  ASSERT_EQ(values.size(), spec_keys().size());
  // Every stop_* key enters the canonical text only under a pass_rate
  // rule, and lollipop/small_world need graph-capable metrics.
  ScenarioSpec base;
  base.metrics = {"flips", "majority"};
  base.stop.rule = StopRule::kPassRate;
  for (const SpecKey& key : spec_keys()) {
    ASSERT_EQ(values.count(key.key), 1u) << key.key;
    EXPECT_GT(std::strlen(key.help), 0u) << key.key;
    ScenarioSpec spec = base;
    std::string why;
    ASSERT_TRUE(spec.set(key.key, values.at(key.key), &why)) << why;
    EXPECT_NE(spec.to_text(), base.to_text()) << key.key;
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(spec.to_text(), &back, &why))
        << key.key << ": " << why;
    EXPECT_EQ(back.to_text(), spec.to_text()) << key.key;

    // A bad value names the key and leaves the spec as it was.
    const std::string before = spec.to_text();
    EXPECT_FALSE(spec.set(key.key, "", &why)) << key.key;
    EXPECT_NE(why.find("'" + std::string(key.key) + "'"), std::string::npos)
        << why;
    EXPECT_EQ(spec.to_text(), before) << key.key;
  }
  ScenarioSpec spec;
  std::string why;
  EXPECT_FALSE(spec.set("frobnicate", "3", &why));
  EXPECT_NE(why.find("'frobnicate'"), std::string::npos) << why;
  EXPECT_FALSE(spec.set("replicas", "-1", &why));
  EXPECT_NE(why.find("'replicas'"), std::string::npos) << why;
  EXPECT_FALSE(spec.set("stop_range", "0", &why));
  EXPECT_NE(why.find("'stop_range'"), std::string::npos) << why;
}

TEST(Scenario, ValidNamesTheOffendingKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"n = 0\n", "n must be >= 1"},
      {"w = 0\n", "w must be >= 1"},
      {"n = 4\n", "n = 4"},
      {"tau = 1.5\n", "tau must be"},
      {"p = -0.1\n", "p must be"},
      {"tau_minus = 2\n", "tau_minus"},
      {"w = 2000000000\nn = 2100000000\n", "w = 2000000000"},
      {"graph_beta = 1.5\n", "graph_beta"},
      {"graph_degree = 0\n", "graph_degree"},
      {"region_samples = 0\n", "region_samples must be >= 1"},
      {"almost_eps = 0\n", "almost_eps must be > 0"},
      {"almost_eps = -1\n", "almost_eps must be > 0"},
      {"topology = random_regular\ngraph_nodes = 20\ngraph_degree = 40\n"
       "metrics = flips\n",
       "graph_degree"},
  };
  for (const auto& [text, expected] : cases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse(text, &spec, &error)) << text;
    EXPECT_NE(error.find(expected), std::string::npos) << error;
  }
}

TEST(Metrics, RegistryLookup) {
  MetricFn fn = nullptr;
  EXPECT_TRUE(lookup_metric("flips", &fn));
  EXPECT_NE(fn, nullptr);
  EXPECT_FALSE(lookup_metric("bogus", nullptr));
  EXPECT_FALSE(known_metrics().empty());
}

TEST(Campaign, ReplicaSeedsAreDistinct) {
  EXPECT_NE(derive_replica_seed(1, 0), derive_replica_seed(1, 1));
  EXPECT_NE(derive_replica_seed(1, 0), derive_replica_seed(2, 0));
}

TEST(Campaign, BitwiseIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions one, four, sixteen;
  one.threads = 1;
  four.threads = 4;
  sixteen.threads = 16;
  const CampaignResult r1 = run_campaign(spec, 99, one);
  const CampaignResult r4 = run_campaign(spec, 99, four);
  const CampaignResult r16 = run_campaign(spec, 99, sixteen);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r4.complete);
  ASSERT_TRUE(r16.complete);
  expect_bitwise_equal(r1, r4);
  expect_bitwise_equal(r1, r16);
  // And the rendered CSV bytes match too.
  EXPECT_EQ(CsvSink::render(spec, r1), CsvSink::render(spec, r4));
  EXPECT_EQ(CsvSink::render(spec, r1), CsvSink::render(spec, r16));
}

TEST(Campaign, DifferentSeedsDiffer) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult a = run_campaign(spec, 1);
  const CampaignResult b = run_campaign(spec, 2);
  const RunningStats* fa = a.stats_for(0, "flips");
  const RunningStats* fb = b.stats_for(0, "flips");
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  EXPECT_NE(fa->mean(), fb->mean());
}

TEST(Checkpoint, SaveLoadRoundTripIsBitExact) {
  CheckpointData data;
  data.seed = 1234567890123456789ULL;
  data.spec_hash = 987654321ULL;
  data.metric_count = 3;
  data.done = {1, 0, 1};
  data.values = {{1.0 / 3.0, -0.0, 1e-308}, {}, {3.14159, 2.0, -7.5e300}};
  const std::string path = testing::TempDir() + "/seg_ck_roundtrip.txt";
  ASSERT_TRUE(save_checkpoint(path, data));
  CheckpointData back;
  ASSERT_TRUE(load_checkpoint(path, &back));
  EXPECT_EQ(back.seed, data.seed);
  EXPECT_EQ(back.spec_hash, data.spec_hash);
  EXPECT_EQ(back.metric_count, data.metric_count);
  EXPECT_EQ(back.done, data.done);
  ASSERT_EQ(back.values.size(), data.values.size());
  for (const std::size_t g : {0u, 2u}) {
    ASSERT_EQ(back.values[g].size(), data.values[g].size());
    for (std::size_t m = 0; m < data.values[g].size(); ++m) {
      EXPECT_EQ(back.values[g][m], data.values[g][m]);  // bit-exact
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsMissingAndTruncated) {
  CheckpointData out;
  EXPECT_FALSE(load_checkpoint(testing::TempDir() + "/absent.ck", &out));
  const std::string path = testing::TempDir() + "/seg_ck_trunc.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "seg-campaign-checkpoint v1\n"
                  "seed 1 hash 2 replicas 4 metrics 1\n"
                  "r 0 3ff0000000000000\n");  // no trailer
  std::fclose(f);
  EXPECT_FALSE(load_checkpoint(path, &out));
  std::remove(path.c_str());
}

TEST(Campaign, CheckpointResumeMatchesUninterrupted) {
  const ScenarioSpec spec = small_spec();
  const std::uint64_t seed = 7;
  const CampaignResult uninterrupted = run_campaign(spec, seed);
  ASSERT_TRUE(uninterrupted.complete);

  const std::string ck = testing::TempDir() + "/seg_campaign_resume.ck";
  std::remove(ck.c_str());

  // Simulate a kill: stop after roughly half the replicas, checkpointing
  // after every completion, at an "awkward" thread count.
  CampaignOptions partial_options;
  partial_options.threads = 3;
  partial_options.checkpoint_path = ck;
  partial_options.checkpoint_every = 1;
  partial_options.max_new_replicas = spec.total_replicas() / 2;
  const CampaignResult partial = run_campaign(spec, seed, partial_options);
  EXPECT_FALSE(partial.complete);
  EXPECT_GE(partial.replicas_done, spec.total_replicas() / 2);
  EXPECT_LT(partial.replicas_done, spec.total_replicas());

  CampaignOptions resume_options;
  resume_options.threads = 4;
  resume_options.checkpoint_path = ck;
  resume_options.resume = true;
  const CampaignResult resumed = run_campaign(spec, seed, resume_options);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.replicas_resumed, partial.replicas_done);
  expect_bitwise_equal(uninterrupted, resumed);
  EXPECT_EQ(CsvSink::render(spec, uninterrupted),
            CsvSink::render(spec, resumed));
  std::remove(ck.c_str());
}

TEST(Campaign, BudgetExhaustionUnderStoppingRuleLeavesPointsOpen) {
  // Regression: a run bounded by max_new_replicas used to let unresolved
  // points silently pass for resolved. Under a stopping rule the budget
  // cut must surface as kOpen (resumable) — never as a stop/cap decision
  // the rule did not actually make.
  ScenarioSpec spec = small_spec();
  spec.stop.rule = StopRule::kHoeffding;
  spec.stop.delta = 0.3;  // unreachable at the 5-replica cap: no fires
  spec.stop.metric = "fixation";
  const std::uint64_t seed = 13;

  const CampaignResult uninterrupted = run_campaign(spec, seed);
  ASSERT_TRUE(uninterrupted.complete);
  for (const PointResult& pr : uninterrupted.points) {
    EXPECT_EQ(pr.state, PointState::kCapped);
  }

  const std::string ck = testing::TempDir() + "/seg_campaign_budget.ck";
  std::remove(ck.c_str());
  CampaignOptions partial_options;
  partial_options.threads = 2;
  partial_options.checkpoint_path = ck;
  partial_options.checkpoint_every = 1;
  partial_options.max_new_replicas = 7;  // of the 20 the grid needs
  const CampaignResult partial = run_campaign(spec, seed, partial_options);
  EXPECT_FALSE(partial.complete);
  std::size_t open = 0;
  for (const PointResult& pr : partial.points) {
    EXPECT_NE(pr.state, PointState::kStopped);
    open += pr.state == PointState::kOpen;
  }
  EXPECT_GT(open, 0u);

  CampaignOptions resume_options;
  resume_options.checkpoint_path = ck;
  resume_options.resume = true;
  const CampaignResult resumed = run_campaign(spec, seed, resume_options);
  ASSERT_TRUE(resumed.complete);
  EXPECT_GT(resumed.replicas_resumed, 0u);
  for (const PointResult& pr : resumed.points) {
    EXPECT_EQ(pr.state, PointState::kCapped);
  }
  expect_bitwise_equal(uninterrupted, resumed);
  std::remove(ck.c_str());
}

TEST(Campaign, ResumeRefusesMismatchedSeedOrSpec) {
  const ScenarioSpec spec = small_spec();
  const std::string ck = testing::TempDir() + "/seg_campaign_mismatch.ck";
  std::remove(ck.c_str());
  CampaignOptions save_options;
  save_options.checkpoint_path = ck;
  save_options.max_new_replicas = 3;
  run_campaign(spec, 1, save_options);

  // Different seed: checkpoint must be ignored, everything recomputed.
  CampaignOptions resume_options;
  resume_options.checkpoint_path = ck;
  resume_options.resume = true;
  const CampaignResult other_seed = run_campaign(spec, 2, resume_options);
  EXPECT_EQ(other_seed.replicas_resumed, 0u);
  ASSERT_TRUE(other_seed.complete);

  // Different spec (extra metric) against the SAME checkpoint file: the
  // identity check, not a missing file, must refuse the resume.
  ScenarioSpec wider = spec;
  wider.metrics.push_back("happy_fraction");
  CampaignOptions wider_options;
  wider_options.checkpoint_path = ck;
  wider_options.resume = true;
  wider_options.max_new_replicas = 2;  // keep the recompute cheap
  const CampaignResult other_spec = run_campaign(wider, 1, wider_options);
  EXPECT_EQ(other_spec.replicas_resumed, 0u);
  std::remove(ck.c_str());
}

TEST(Campaign, ResumeRefusesAdjustedPoints) {
  // Same spec text, different actual points (the region_size pattern of
  // mutating expanded points): the identity hash must cover the points.
  const ScenarioSpec spec = small_spec();
  const std::string ck = testing::TempDir() + "/seg_points.ck";
  std::remove(ck.c_str());
  CampaignOptions save_options;
  save_options.checkpoint_path = ck;
  run_campaign(spec, expand_grid(spec), spec.metrics,
               make_schelling_replica(spec), 11, save_options);

  std::vector<ScenarioPoint> adjusted = expand_grid(spec);
  for (ScenarioPoint& pt : adjusted) pt.params.n = 32;
  CampaignOptions resume_options;
  resume_options.checkpoint_path = ck;
  resume_options.resume = true;
  resume_options.max_new_replicas = 1;
  const CampaignResult r =
      run_campaign(spec, adjusted, spec.metrics,
                   make_schelling_replica(spec), 11, resume_options);
  EXPECT_EQ(r.replicas_resumed, 0u);
  std::remove(ck.c_str());
}

TEST(Campaign, StatsForUnknownNamesReturnsNull) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult r = run_campaign(spec, 5);
  EXPECT_NE(r.stats_for(0, "flips"), nullptr);
  EXPECT_EQ(r.stats_for(0, "bogus"), nullptr);
  EXPECT_EQ(r.stats_for(999, "flips"), nullptr);
}

TEST(Campaign, BuiltinCampaignsExpand) {
  for (const std::string& name : builtin_campaign_names()) {
    BuiltinCampaign campaign;
    ASSERT_TRUE(make_builtin_campaign(name, {}, &campaign)) << name;
    EXPECT_FALSE(campaign.points.empty()) << name;
    EXPECT_FALSE(campaign.metric_names.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(campaign.replica)) << name;
  }
  BuiltinCampaign campaign;
  EXPECT_FALSE(make_builtin_campaign("nope", {}, &campaign));
  // region_size ties the torus side to the horizon.
  ASSERT_TRUE(make_builtin_campaign("region_size", {}, &campaign));
  for (const ScenarioPoint& pt : campaign.points) {
    EXPECT_EQ(pt.params.n, std::max(64, 24 * pt.params.w));
  }
}

TEST(Campaign, BuiltinsRefuseUnreadKeysAndCheckTheSpecTheyRun) {
  EXPECT_EQ(find_builtin("nope"), nullptr);
  std::string why;
  for (const std::string& name : builtin_campaign_names()) {
    const Builtin* builtin = find_builtin(name);
    ASSERT_NE(builtin, nullptr) << name;
    EXPECT_TRUE(builtin->valid(builtin->base(), &why)) << name << ": " << why;
  }
  // region_size derives n from w, so it reads every key but n, and a w
  // too wide for n = 64 is still valid at its own side n = 24w.
  const Builtin* region = find_builtin("region_size");
  EXPECT_FALSE(region->reads("n"));
  EXPECT_TRUE(region->reads("w"));
  ScenarioSpec spec = region->base();
  spec.w = {40};
  EXPECT_FALSE(spec.valid());
  EXPECT_TRUE(region->valid(spec, &why)) << why;
  spec.w = {91};
  EXPECT_FALSE(region->valid(spec, &why));
  // The percolation replicas read n (box side L), p and replicas only.
  const Builtin* radius = find_builtin("percolation_radius");
  for (const SpecKey& key : spec_keys()) {
    const std::string k = key.key;
    EXPECT_EQ(radius->reads(k), k == "n" || k == "p" || k == "replicas")
        << k;
  }
  spec = radius->base();
  spec.n = {0};
  EXPECT_FALSE(radius->valid(spec, &why));
  EXPECT_NE(why.find("n must be >= 1"), std::string::npos) << why;
  spec = radius->base();
  spec.p = {1.5};
  EXPECT_FALSE(radius->valid(spec, &why));
  EXPECT_NE(why.find("p must be"), std::string::npos) << why;
}

TEST(Sinks, CsvAndManifestWrite) {
  ScenarioSpec spec = small_spec();
  spec.replicas = 2;
  const CampaignResult result = run_campaign(spec, 3);
  const std::string csv_path = testing::TempDir() + "/seg_sink.csv";
  const std::string manifest_path = testing::TempDir() + "/seg_sink.manifest";
  CsvSink csv(csv_path);
  ManifestSink manifest(manifest_path);
  manifest.set_info("threads", "1");
  EXPECT_TRUE(write_all(spec, result, {&csv, &manifest}));

  std::ifstream csv_in(csv_path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(csv_in, header)));
  EXPECT_NE(header.find("flips_mean"), std::string::npos);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(csv_in, line)) ++rows;
  EXPECT_EQ(rows, result.points.size());

  std::ifstream manifest_in(manifest_path);
  std::string manifest_text((std::istreambuf_iterator<char>(manifest_in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(manifest_text.find("complete = true"), std::string::npos);
  EXPECT_NE(manifest_text.find("[spec]"), std::string::npos);
  EXPECT_NE(manifest_text.find("threads = 1"), std::string::npos);
  std::remove(csv_path.c_str());
  std::remove(manifest_path.c_str());
}

}  // namespace
}  // namespace seg
