// Differential battery for the graph-topology engine (graph/topology.h
// driving lattice/engine.h in graph mode).
//
// The contract, strongest first:
//  1. The torus expressed as a GraphTopology reproduces the native span
//     engine BITWISE on every frozen golden trajectory — same flips, same
//     RNG consumption, same hashes as test_golden_trajectory.cc. The
//     graph rows are emitted in stencil order, so the touch/set-mutation
//     history is identical; any ordering regression lands here.
//  2. Graph-partition sharding is sound: one part reproduces the serial
//     graph engine bitwise through run_parallel_glauber, and a k-part
//     greedy-BFS partition is thread-count invariant with exact
//     invariants at absorption — on non-torus topologies (lollipop,
//     random regular, small world) whose cuts are irregular.
//  3. Graph campaigns aggregate bitwise identically at any worker count,
//     serial and sharded, although replicas of a point in flight together
//     share one topology build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "campaign/campaign.h"
#include "campaign/sinks.h"
#include "core/comfort.h"
#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "golden_fixtures.h"
#include "graph/partition.h"
#include "graph/topology.h"

namespace seg {
namespace {

using golden::hash_bytes;
using golden::mix;
using golden::mix_double;

std::shared_ptr<const GraphTopology> torus_graph(int n,
                                                 NeighborhoodShape shape,
                                                 int w) {
  return std::make_shared<const GraphTopology>(
      GraphTopology::torus(n, neighborhood_offsets(shape, w)));
}

// ---- torus-as-graph vs the frozen golden hashes ----------------------------

TEST(GraphDifferential, GlauberGoldenBitwise) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  ASSERT_TRUE(m.graph_mode());
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kGlauber);
}

TEST(GraphDifferential, DiscreteGoldenBitwise) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.55, .p = 0.5};
  Rng init = Rng::stream(1002, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1002, 1);
  RunOptions opt;
  opt.max_flips = 3000;
  const RunResult r = run_discrete(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kDiscrete);
}

TEST(GraphDifferential, AsymmetricVonNeumannGoldenBitwise) {
  ModelParams p{.n = 40, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.55,
                .shape = NeighborhoodShape::kVonNeumann};
  Rng init = Rng::stream(1003, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1003, 1);
  RunOptions opt;
  opt.max_flips = 4000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kAsymVonNeumann);
}

TEST(GraphDifferential, SynchronousGoldenBitwise) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1004, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  const RunResult r = run_synchronous(m, 64);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix(h, r.rounds);
  h = mix(h, r.cycle_detected ? 1 : 0);
  EXPECT_EQ(h, golden::kSynchronous);
}

TEST(GraphDifferential, ComfortGoldenBitwise) {
  ComfortParams p{.n = 40, .w = 2, .tau_lo = 0.4, .tau_hi = 0.8, .p = 0.5};
  Rng init = Rng::stream(1005, 0);
  const auto spins = random_spins(p.n, p.p, init);
  ComfortModel m(p, torus_graph(p.n, NeighborhoodShape::kMoore, p.w), spins);
  ASSERT_TRUE(m.graph_mode());
  Rng dyn = Rng::stream(1005, 1);
  const ComfortRunResult r = run_comfort(m, dyn, 5000);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kComfort);
}

TEST(GraphDifferential, KawasakiGoldenBitwise) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init = Rng::stream(1007, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1007, 1);
  KawasakiOptions opt;
  opt.max_swaps = 1500;
  const KawasakiResult r = run_kawasaki(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.swaps);
  h = mix(h, r.proposals);
  EXPECT_EQ(h, golden::kKawasaki);
}

// ---- graph-partition sharding ----------------------------------------------

// One part is the serial graph engine, bitwise, on an irregular topology.
TEST(GraphDifferential, OnePartGlauberIsSerialBitwise) {
  ModelParams p{.tau = 0.35, .p = 0.5};
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::lollipop(/*clique=*/24, /*path=*/40));
  const std::uint64_t dyn_seed = 988001;

  Rng init_a = Rng::stream(3001, 0);
  const auto spins =
      random_spins_count(graph->node_count(), p.p, init_a);
  SchellingModel serial(p, graph, spins);
  Rng dyn = Rng::stream(dyn_seed, 0);
  RunOptions serial_opt;
  serial_opt.max_flips = 4000;
  const RunResult serial_run = run_glauber(serial, dyn, serial_opt);

  SchellingModel sharded(p, graph, spins,
                         GraphPartition::greedy_bfs(*graph, 1));
  ParallelOptions opt;
  opt.max_flips = 4000;
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed, opt);

  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);  // bitwise
  EXPECT_EQ(parallel_run.deferred, 0u);
  EXPECT_EQ(sharded.spins(), serial.spins());
  EXPECT_TRUE(sharded.check_invariants());
}

// k parts: thread-count invariant, boundary machinery exercised, exact
// invariants at the end — on each of the three non-torus families.
TEST(GraphDifferential, MultiPartGlauberInvariantAcrossThreadCounts) {
  ModelParams p{.tau = 0.4, .p = 0.5};
  const std::vector<Point> stencil =
      neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const auto topologies = {
      std::make_shared<const GraphTopology>(
          GraphTopology::lollipop(32, 96)),
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(512, 8, /*seed=*/7)),
      std::make_shared<const GraphTopology>(
          GraphTopology::small_world(24, stencil, 0.1, /*seed=*/7)),
  };
  for (const auto& graph : topologies) {
    ASSERT_TRUE(graph->validate());
    const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 4);
    EXPECT_GT(partition.boundary_site_count(), 0u);

    Rng init = Rng::stream(3002, 0);
    const auto spins =
        random_spins_count(graph->node_count(), p.p, init);

    std::uint64_t reference_hash = 0;
    ParallelRunResult reference;
    for (const std::size_t threads : {1u, 4u}) {
      SchellingModel model(p, graph, spins, partition);
      ParallelOptions opt;
      opt.threads = threads;
      opt.max_flips = 3000;
      const ParallelRunResult run =
          run_parallel_glauber(model, /*seed=*/988002, opt);
      EXPECT_TRUE(model.check_invariants());
      const auto field = model.spins();
      std::uint64_t h = hash_bytes(field.data(), field.size());
      h = mix(h, run.flips);
      h = mix(h, run.sweeps);
      if (threads == 1) {
        reference_hash = h;
        reference = run;
      } else {
        EXPECT_EQ(h, reference_hash);
        EXPECT_EQ(run.flips, reference.flips);
        EXPECT_EQ(run.deferred, reference.deferred);
        EXPECT_EQ(run.reconciled, reference.reconciled);
        EXPECT_EQ(run.final_time, reference.final_time);
      }
    }
  }
}

// Graph parts are not contiguous id ranges, so on the one-row bit layout
// nearly every 64-bit spin word holds nodes of several parts, and
// concurrent phase-A flips land on shared words. A lost bit update would
// leave a count that disagrees with a recount (check_invariants) or a
// result that depends on the thread count or the run; 8 parts over 4096
// nodes and repeated 4-thread runs give the atomic flip path real
// contention.
TEST(GraphDifferential, MultiPartRandomRegularSharesSpinWords) {
  ModelParams p{.tau = 0.45, .p = 0.5};
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::random_regular(4096, 6, /*seed=*/13));
  const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 8);
  ASSERT_EQ(partition.part_count(), 8);
  std::size_t mixed_words = 0;
  for (std::uint32_t base = 0; base < graph->node_count(); base += 64) {
    for (std::uint32_t v = base + 1; v < base + 64; ++v) {
      if (partition.part_of(v) != partition.part_of(base)) {
        ++mixed_words;
        break;
      }
    }
  }
  EXPECT_GT(mixed_words, 32u) << "parts should interleave within words";

  Rng init = Rng::stream(3003, 0);
  const auto spins = random_spins_count(graph->node_count(), p.p, init);
  std::uint64_t reference_hash = 0;
  ParallelRunResult reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 2u, 4u, 4u, 4u}) {
    SchellingModel model(p, graph, spins, partition);
    ParallelOptions opt;
    opt.threads = threads;
    const ParallelRunResult run =
        run_parallel_glauber(model, /*seed=*/988003, opt);
    ASSERT_TRUE(model.check_invariants()) << threads << " threads";
    EXPECT_GT(run.flips, 1000u);
    const auto field = model.spins();
    std::uint64_t h = hash_bytes(field.data(), field.size());
    h = mix(h, run.flips);
    h = mix(h, run.sweeps);
    if (!have_reference) {
      reference_hash = h;
      reference = run;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(h, reference_hash) << threads << " threads";
    EXPECT_EQ(run.flips, reference.flips);
    EXPECT_EQ(run.deferred, reference.deferred);
    EXPECT_EQ(run.reconciled, reference.reconciled);
    EXPECT_EQ(run.final_time, reference.final_time);
  }
}

// The partition isolation guarantee phase A relies on, verified directly:
// a flip at a non-boundary node touches only nodes of its own part.
TEST(GraphDifferential, PartitionIsolationInvariant) {
  const auto graph = GraphTopology::random_regular(256, 6, /*seed=*/11);
  const GraphPartition partition = GraphPartition::greedy_bfs(graph, 4);
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    if (partition.boundary(v)) continue;
    const auto [row, len] = graph.row(v);
    for (int i = 0; i < len; ++i) {
      ASSERT_EQ(partition.part_of(row[i]), partition.part_of(v))
          << "interior node " << v << " reaches part-crossing neighbor "
          << row[i];
    }
  }
}

// ---- campaign level ---------------------------------------------------------

// Every graph family, edge_list included, through run_campaign: the
// aggregates must not depend on the worker count, whether or not the
// replicas run sharded.
TEST(GraphDifferential, GraphCampaignInvariantAcrossWorkerCounts) {
  const std::string path =
      ::testing::TempDir() + "seg_graph_campaign.edges";
  {
    // A 48-node ring with chords: degree 4 everywhere.
    std::ofstream edges(path);
    for (int v = 0; v < 48; ++v) {
      edges << v << ' ' << (v + 1) % 48 << '\n';
      edges << v << ' ' << (v + 5) % 48 << '\n';
    }
  }
  ScenarioSpec spec;
  spec.name = "graph_campaign";
  spec.n = {12};
  spec.w = {1};
  spec.tau = {0.35, 0.45};
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kRandomRegular,
                   TopologyFamily::kSmallWorld, TopologyFamily::kEdgeList};
  spec.graph_clique = 8;
  spec.graph_path = 10;
  spec.graph_degree = 6;
  spec.graph_file = path;
  spec.replicas = 6;
  spec.max_flips = 20000;
  spec.metrics = {"flips", "terminated", "majority", "happy_fraction",
                  "plus_fraction"};
  for (const std::size_t shards : {1u, 2u}) {
    spec.shards = shards;
    std::string why;
    ASSERT_TRUE(spec.valid(&why)) << why;
    CampaignOptions options;
    options.threads = 1;
    const CampaignResult reference = run_campaign(spec, 91, options);
    ASSERT_TRUE(reference.complete);
    ASSERT_EQ(reference.points.size(), 8u);
    for (const PointResult& pr : reference.points) {
      for (const RunningStats& st : pr.stats) {
        ASSERT_TRUE(std::isfinite(st.mean()))
            << topology_name(pr.point.topology) << " point " << pr.point.index
            << " has a non-finite aggregate";
      }
    }
    const std::string csv = CsvSink::render(spec, reference);
    for (const std::size_t threads : {2u, 4u}) {
      options.threads = threads;
      const CampaignResult result = run_campaign(spec, 91, options);
      ASSERT_EQ(result.points.size(), reference.points.size());
      for (std::size_t i = 0; i < result.points.size(); ++i) {
        for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
          const RunningStats& a = reference.points[i].stats[m];
          const RunningStats& b = result.points[i].stats[m];
          EXPECT_EQ(a.count(), b.count());
          EXPECT_EQ(a.mean(), b.mean())
              << shards << " shards, " << threads << " workers, point " << i
              << " metric " << result.metric_names[m];
          EXPECT_EQ(a.variance(), b.variance());
          EXPECT_EQ(a.min(), b.min());
          EXPECT_EQ(a.max(), b.max());
        }
      }
      EXPECT_EQ(CsvSink::render(spec, result), csv)
          << shards << " shards, " << threads << " workers";
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seg
