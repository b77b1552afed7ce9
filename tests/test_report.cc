// Tests for the structured run report: histogram quantile estimation,
// report building from a campaign result plus the registry, and the
// JSON / markdown renders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/stopping.h"
#include "json_checker.h"
#include "obs/report.h"
#include "obs/telemetry.h"

namespace seg {
namespace {

using seg::testing::json_well_formed;

struct ScopedTelemetry {
  ScopedTelemetry() {
    obs::set_enabled(true);
    obs::Registry::instance().reset_values();
  }
  ~ScopedTelemetry() { obs::set_enabled(false); }
};

TEST(HistogramQuantile, InterpolatesWithinLog2Buckets) {
  // 100 observations of value 10 (bucket b=4, range [8,15]): every
  // quantile lands inside that bucket's bounds.
  std::vector<std::uint64_t> buckets(obs::kHistogramBuckets, 0);
  buckets[4] = 100;
  const double p50 = obs::quantile_from_log2_buckets(buckets, 0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
  const double p99 = obs::quantile_from_log2_buckets(buckets, 0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 15.0);
}

TEST(HistogramQuantile, OrdersAcrossBuckets) {
  // 90 small values, 10 large ones: the p50 sits in the low bucket, the
  // p99 in the high one.
  std::vector<std::uint64_t> buckets(obs::kHistogramBuckets, 0);
  buckets[3] = 90;   // [4, 7]
  buckets[10] = 10;  // [512, 1023]
  const double p50 = obs::quantile_from_log2_buckets(buckets, 0.5);
  const double p99 = obs::quantile_from_log2_buckets(buckets, 0.99);
  EXPECT_LE(p50, 7.0);
  EXPECT_GE(p99, 512.0);
}

TEST(HistogramQuantile, EmptyHistogramIsNan) {
  std::vector<std::uint64_t> buckets(obs::kHistogramBuckets, 0);
  EXPECT_TRUE(std::isnan(obs::quantile_from_log2_buckets(buckets, 0.5)));
}

TEST(HistogramQuantile, RegistryLookupMatchesFreeFunction) {
  ScopedTelemetry telemetry;
  for (int i = 0; i < 100; ++i) SEG_HISTOGRAM("report_test.q_us", 100);
  const double p50 =
      obs::Registry::instance().histogram_quantile("report_test.q_us", 0.5);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
}

CampaignResult fake_result() {
  CampaignResult result;
  result.seed = 99;
  result.metric_names = {"seg_index"};
  result.replicas_done = 12;
  result.replicas_resumed = 4;
  result.complete = true;
  PointResult stopped;
  stopped.state = PointState::kStopped;
  stopped.replicas_used = 5;
  PointResult capped;
  capped.state = PointState::kCapped;
  capped.replicas_used = 7;
  result.points = {stopped, capped};
  result.decision_trace = {
      StopDecision{0, 5, StopRule::kHoeffding, 0.01},
  };
  return result;
}

TEST(RunReport, FoldsResultAndRegistry) {
  ScopedTelemetry telemetry;
  SEG_COUNT("campaign.checkpoints", 3);
  SEG_COUNT("graph.topology_builds", 6);
  SEG_COUNT("pool.campaign.worker.0.busy_us", 500000);
  for (int i = 0; i < 32; ++i) SEG_HISTOGRAM("phase.sweep_us", 100 + i);
  SEG_HISTOGRAM("streaming.split_piece_sites", 64);  // not a phase

  const obs::RunReport rep = obs::build_report(fake_result(), 1.0);
  EXPECT_EQ(rep.seed, 99u);
  EXPECT_EQ(rep.points, 2u);
  EXPECT_EQ(rep.points_stopped, 1u);
  EXPECT_EQ(rep.points_capped, 1u);
  EXPECT_EQ(rep.replicas_done, 12u);
  EXPECT_EQ(rep.replicas_resumed, 4u);
  EXPECT_EQ(rep.checkpoints_written, 3u);
  EXPECT_EQ(rep.topology_builds, 6u);
  EXPECT_EQ(rep.decisions, 1u);
  EXPECT_EQ(rep.min_stop_replicas, 5u);
  EXPECT_EQ(rep.max_stop_replicas, 5u);

  ASSERT_EQ(rep.phases.size(), 1u) << "only phase.* histograms qualify";
  EXPECT_EQ(rep.phases[0].name, "phase.sweep_us");
  EXPECT_EQ(rep.phases[0].count, 32u);
  EXPECT_LE(rep.phases[0].p50_us, rep.phases[0].p95_us);
  EXPECT_LE(rep.phases[0].p95_us, rep.phases[0].p99_us);

  ASSERT_EQ(rep.workers.size(), 1u);
  EXPECT_NEAR(rep.workers[0].utilization, 0.5, 1e-9);
}

TEST(RunReport, JsonRenderIsWellFormed) {
  ScopedTelemetry telemetry;
  for (int i = 0; i < 8; ++i) SEG_HISTOGRAM("phase.reconcile_us", 50);
  const std::string doc = obs::render_json(obs::build_report(fake_result(),
                                                             2.5));
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  EXPECT_NE(doc.find("\"decision_trace_hash\""), std::string::npos);
  EXPECT_NE(doc.find("\"phase.reconcile_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"wall_time_s\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"topology_builds\""), std::string::npos);
}

TEST(RunReport, MarkdownRenderHasSections) {
  ScopedTelemetry telemetry;
  for (int i = 0; i < 8; ++i) SEG_HISTOGRAM("phase.sweep_us", 200);
  const std::string md =
      obs::render_markdown(obs::build_report(fake_result(), 1.0));
  EXPECT_NE(md.find("# Campaign run report"), std::string::npos);
  EXPECT_NE(md.find("## Phase latencies"), std::string::npos);
  EXPECT_NE(md.find("## Adaptive stopping"), std::string::npos);
  EXPECT_NE(md.find("| phase.sweep_us |"), std::string::npos);
}

TEST(RunReport, WriteDispatchesOnExtension) {
  ScopedTelemetry telemetry;
  const obs::RunReport rep = obs::build_report(fake_result(), 1.0);

  const std::string json_path = "/tmp/seg_report_test.json";
  ASSERT_TRUE(obs::write_report(rep, json_path));
  std::ostringstream json_text;
  json_text << std::ifstream(json_path).rdbuf();
  EXPECT_TRUE(json_well_formed(json_text.str()));
  std::remove(json_path.c_str());

  const std::string md_path = "/tmp/seg_report_test.md";
  ASSERT_TRUE(obs::write_report(rep, md_path));
  std::ostringstream md_text;
  md_text << std::ifstream(md_path).rdbuf();
  EXPECT_EQ(md_text.str().rfind("# Campaign run report", 0), 0u);
  std::remove(md_path.c_str());
}

}  // namespace
}  // namespace seg
