#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
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
