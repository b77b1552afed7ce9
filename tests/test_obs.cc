// Tests for the telemetry registry, trace sessions, and the progress
// reporter — plus the differential guarantee that none of it perturbs a
// simulation trajectory.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamics.h"
#include "core/parallel_dynamics.h"
#include "golden_fixtures.h"
#include "json_checker.h"
#include "lattice/sharded.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace seg {
namespace {

using golden::hash_bytes;
using golden::mix;
using golden::mix_double;
using seg::testing::json_well_formed;

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(json_well_formed("{}"));
  EXPECT_TRUE(json_well_formed("{\"a\":[1,2.5,-3e4],\"b\":{\"c\":null}}"));
  EXPECT_TRUE(json_well_formed("[true,false,\"x\\\"y\"]"));
  EXPECT_FALSE(json_well_formed("{\"a\":}"));
  EXPECT_FALSE(json_well_formed("[1,2"));
  EXPECT_FALSE(json_well_formed("{} extra"));
}

// ---- registry ----------------------------------------------------------

TEST(Telemetry, CounterMergesThreadSlabsExactly) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricId id = reg.counter("test.obs.merge");
  const std::uint64_t before = reg.counter_value("test.obs.merge");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 20000;
  constexpr std::uint64_t kDelta = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, id] {
      for (std::uint64_t i = 0; i < kAdds; ++i) reg.add(id, kDelta);
    });
  }
  for (std::thread& th : threads) th.join();
  // Slabs released by exited threads must still be summed (and reused
  // slabs must not double-count).
  EXPECT_EQ(reg.counter_value("test.obs.merge") - before,
            kThreads * kAdds * kDelta);
}

TEST(Telemetry, RegistrationIsIdempotent) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricId a = reg.counter("test.obs.idempotent");
  const obs::MetricId b = reg.counter("test.obs.idempotent");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.slot, b.slot);
}

TEST(Telemetry, HistogramBucketBoundaries) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricId id = reg.histogram("test.obs.hist");
  reg.observe(id, 0);                       // bucket 0
  reg.observe(id, 1);                       // bucket 1: [1,1]
  reg.observe(id, 2);                       // bucket 2: [2,3]
  reg.observe(id, 3);                       // bucket 2
  reg.observe(id, 4);                       // bucket 3: [4,7]
  reg.observe(id, 7);                       // bucket 3
  reg.observe(id, 8);                       // bucket 4: [8,15]
  reg.observe(id, (1ull << 62) - 1);        // bucket 62
  reg.observe(id, 1ull << 62);              // clamped into bucket 63
  reg.observe(id, ~0ull);                   // clamped into bucket 63
  const std::vector<std::uint64_t> b = reg.histogram_buckets("test.obs.hist");
  ASSERT_EQ(b.size(), static_cast<std::size_t>(obs::kHistogramBuckets));
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 2u);
  EXPECT_EQ(b[4], 1u);
  EXPECT_EQ(b[62], 1u);
  EXPECT_EQ(b[63], 2u);
}

TEST(Telemetry, GaugeSetAndMax) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricId id = reg.gauge("test.obs.gauge");
  reg.gauge_set(id, 42);
  EXPECT_EQ(reg.gauge_value("test.obs.gauge"), 42);
  reg.gauge_max(id, 17);
  EXPECT_EQ(reg.gauge_value("test.obs.gauge"), 42);
  reg.gauge_max(id, 99);
  EXPECT_EQ(reg.gauge_value("test.obs.gauge"), 99);
  reg.gauge_set(id, -5);
  EXPECT_EQ(reg.gauge_value("test.obs.gauge"), -5);
}

TEST(Telemetry, CountersWithPrefixSortedAndFiltered) {
  obs::Registry& reg = obs::Registry::instance();
  reg.add(reg.counter("test.obs.prefix.b"), 2);
  reg.add(reg.counter("test.obs.prefix.a"), 1);
  reg.add(reg.counter("test.obs.other"), 7);
  const auto rows = reg.counters_with_prefix("test.obs.prefix.");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "test.obs.prefix.a");
  EXPECT_EQ(rows[1].first, "test.obs.prefix.b");
}

#if !defined(SEG_TELEMETRY_DISABLED)

TEST(Telemetry, MacrosAreNoOpsWhileRuntimeDisabled) {
  obs::set_enabled(false);
  SEG_COUNT("test.obs.runtime_gate", 5);
  // While disabled the macro must not even register the name.
  EXPECT_EQ(obs::Registry::instance().counter_value("test.obs.runtime_gate"),
            0u);
  obs::set_enabled(true);
  SEG_COUNT("test.obs.runtime_gate", 5);
  SEG_COUNT("test.obs.runtime_gate", 2);
  obs::set_enabled(false);
  SEG_COUNT("test.obs.runtime_gate", 100);
  EXPECT_EQ(obs::Registry::instance().counter_value("test.obs.runtime_gate"),
            7u);
}

#endif  // !SEG_TELEMETRY_DISABLED

// ---- tracing -----------------------------------------------------------

TEST(Trace, JsonIsWellFormedAcrossThreads) {
  obs::TraceSession session;
  session.start();
  ASSERT_TRUE(session.active());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&session] {
      for (int i = 0; i < 50; ++i) {
        const double start = session.now_us();
        session.record_complete("span \"quoted\\\n", start,
                                session.now_us() - start);
        session.record_instant("tick");
        session.record_counter("queue", i - 25);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  session.stop();
  EXPECT_FALSE(session.active());
  EXPECT_EQ(session.event_count(), 4u * 50u * 3u);
  const std::string doc = session.to_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Trace, FirstSessionWinsAndSpansNoOpWithoutOne) {
  {
    // No active session: spans must be harmless.
    obs::TraceSpan idle("idle");
  }
  obs::TraceSession first;
  obs::TraceSession second;
  first.start();
  second.start();  // must not displace `first`
  EXPECT_TRUE(first.active());
  EXPECT_FALSE(second.active());
  EXPECT_EQ(obs::TraceSession::current(), &first);
  first.stop();
  EXPECT_EQ(obs::TraceSession::current(), nullptr);
}

TEST(Trace, WriteJsonRoundTripsThroughDisk) {
  obs::TraceSession session;
  session.start();
  session.record_instant("only");
  session.stop();
  const std::string path = ::testing::TempDir() + "seg_test_trace.json";
  ASSERT_TRUE(session.write_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), session.to_json());
  std::remove(path.c_str());
}

// ---- differential: telemetry must not perturb trajectories -------------

#if !defined(SEG_TELEMETRY_DISABLED)

std::uint64_t serial_glauber_hash() {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  return mix_double(h, r.final_time);
}

std::uint64_t sharded_glauber_hash() {
  ModelParams p{.n = 48, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init = Rng::stream(2001, 0);
  SchellingModel m(p, init, ShardLayout::stripes(p.n, p.w, 4));
  ParallelOptions opt;
  opt.threads = 2;
  opt.max_flips = 4000;
  const RunResult r = to_run_result(run_parallel_glauber(m, 2002, opt));
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  return mix(h, r.flips);
}

// The golden-trajectory suite pins the serial hash with telemetry off;
// here the same run must produce the identical bits with the registry
// live, a trace session recording, and runtime telemetry enabled. This
// is the enforcement of the "telemetry touches no RNG" contract.
TEST(TelemetryDifferential, GoldenTrajectoryBitwiseUnchanged) {
  obs::set_enabled(false);
  const std::uint64_t off_serial = serial_glauber_hash();
  EXPECT_EQ(off_serial, golden::kGlauber);
  const std::uint64_t off_sharded = sharded_glauber_hash();

  obs::set_enabled(true);
  obs::TraceSession session;
  session.start();
  const std::uint64_t on_serial = serial_glauber_hash();
  const std::uint64_t on_sharded = sharded_glauber_hash();
  session.stop();
  obs::set_enabled(false);

  EXPECT_EQ(on_serial, off_serial);
  EXPECT_EQ(on_sharded, off_sharded);
  // The instrumented sharded path must actually have recorded something,
  // or this differential is vacuous.
  EXPECT_GT(session.event_count(), 0u);
  EXPECT_GT(obs::Registry::instance().counter_value("engine.flips"), 0u);
  // The sweep histograms: one flips_per_sweep value per sweep and one
  // barrier wait per shard per sweep (the run above has 4 shards).
  const auto observations = [](const std::string& name) {
    std::uint64_t total = 0;
    for (const std::uint64_t b :
         obs::Registry::instance().histogram_buckets(name)) {
      total += b;
    }
    return total;
  };
  const std::uint64_t sweeps = observations("dynamics.flips_per_sweep");
  EXPECT_GT(sweeps, 0u);
  EXPECT_EQ(observations("phase.barrier_wait_us"), 4 * sweeps);
}

#endif  // !SEG_TELEMETRY_DISABLED

// ---- progress reporter -------------------------------------------------

TEST(Progress, WritesWellFormedJsonlAndFinalRecord) {
  const std::string path = ::testing::TempDir() + "seg_test_progress.jsonl";
  std::remove(path.c_str());
  {
    obs::ProgressOptions opt;
    opt.interval_s = 0.005;
    opt.jsonl_path = path;
    opt.stderr_line = false;
    opt.force_tty = -1;
    obs::ProgressReporter reporter(4, opt);
    auto cb = reporter.callback();
    cb(1, 4);
    cb(2, 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cb(3, 4);
    cb(4, 4);
    reporter.finish();
    EXPECT_GE(reporter.records_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::string last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(json_well_formed(line)) << line;
    last = line;
  }
  EXPECT_GE(lines, 1u);
  // finish() emits a final record reflecting the terminal state.
  EXPECT_NE(last.find("\"done\":4"), std::string::npos) << last;
  EXPECT_NE(last.find("\"total\":4"), std::string::npos) << last;
  EXPECT_NE(last.find("\"workers\":"), std::string::npos) << last;
  EXPECT_NE(last.find("\"streaming\":"), std::string::npos) << last;
  std::remove(path.c_str());
}

TEST(Progress, ZeroReplicaRunStillEmitsRecord) {
  const std::string path = ::testing::TempDir() + "seg_test_progress0.jsonl";
  std::remove(path.c_str());
  {
    obs::ProgressOptions opt;
    opt.interval_s = 60.0;  // ticker never fires on its own
    opt.jsonl_path = path;
    opt.stderr_line = false;
    opt.force_tty = -1;
    obs::ProgressReporter reporter(0, opt);
    reporter.finish();
    EXPECT_EQ(reporter.records_written(), 1u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_NE(line.find("\"done\":0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seg
