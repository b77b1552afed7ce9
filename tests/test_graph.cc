// Invariant battery for the graph-topology subsystem and the correctness
// satellites that shipped with it:
//  * builder invariants — torus rows in stencil order, lollipop degree
//    spectrum, random-regular degree exactness, small-world edge
//    conservation, from_edges rows against a per-node reference build,
//    edge-list round-trips and malformed-input refusal,
//    and refusal of hubs beyond the engine's int16 count limit (at
//    import and at engine construction);
//  * greedy-BFS partition coverage/balance and the boundary definition;
//  * randomized flip fuzz over all three synthetic families: engine
//    invariant audit, degree conservation, magnetization bookkeeping;
//  * checked-parse helpers (util/parse.h): trailing garbage, overflow,
//    negative-into-unsigned, error messages naming the offending token;
//  * ArgParser malformed-value recording;
//  * checkpoint torn-write refusal (truncations must never load);
//  * ScenarioSpec topology keys: round-trip, default-text stability
//    (hash compatibility), graph-parameter validation (count limit
//    included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/scenario.h"
#include "core/model.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "grid/point.h"
#include "lattice/membership.h"
#include "rng/rng.h"
#include "util/args.h"
#include "util/parse.h"

namespace seg {
namespace {

// ---- builders ---------------------------------------------------------------

TEST(GraphTopologyTest, TorusRowsFollowStencilOrder) {
  const int n = 7;
  const auto offsets = neighborhood_offsets(NeighborhoodShape::kMoore, 2);
  const GraphTopology g = GraphTopology::torus(n, offsets);
  ASSERT_EQ(g.node_count(), static_cast<std::size_t>(n) * n);
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    const int x = static_cast<int>(v) % n;
    const int y = static_cast<int>(v) / n;
    const auto [row, len] = g.row(v);
    ASSERT_EQ(len, static_cast<int>(offsets.size()));
    for (int i = 0; i < len; ++i) {
      const int nx = torus_wrap(x + offsets[i].x, n);
      const int ny = torus_wrap(y + offsets[i].y, n);
      ASSERT_EQ(row[i], static_cast<std::uint32_t>(ny * n + nx))
          << "node " << v << " stencil slot " << i;
    }
  }
  EXPECT_TRUE(g.validate());
}

TEST(GraphTopologyTest, LollipopDegreeSpectrum) {
  const int clique = 6, path = 4;
  const GraphTopology g = GraphTopology::lollipop(clique, path);
  std::string error;
  ASSERT_TRUE(g.validate(&error)) << error;
  ASSERT_EQ(g.node_count(), static_cast<std::size_t>(clique + path));
  EXPECT_EQ(g.edge_count(),
            static_cast<std::size_t>(clique * (clique - 1) / 2 + path));
  for (std::uint32_t v = 0; v + 1 < static_cast<std::uint32_t>(clique); ++v) {
    EXPECT_EQ(g.degree(v), clique - 1) << "clique node " << v;
  }
  // The junction carries the clique plus the first path node.
  EXPECT_EQ(g.degree(clique - 1), clique);
  for (std::uint32_t v = clique; v + 1 < g.node_count(); ++v) {
    EXPECT_EQ(g.degree(v), 2) << "path node " << v;
  }
  EXPECT_EQ(g.degree(static_cast<std::uint32_t>(g.node_count() - 1)), 1);
}

TEST(GraphTopologyTest, RandomRegularDegreesExact) {
  // Odd and even degrees, and a degree high enough that rejection
  // sampling of a simple graph would essentially never succeed — the
  // swap-repair construction must still deliver exact degrees.
  struct Case { int nodes, degree; std::uint64_t seed; };
  for (const Case c : {Case{64, 3, 1}, Case{128, 8, 2}, Case{90, 7, 3},
                       Case{256, 16, 4}}) {
    const GraphTopology g =
        GraphTopology::random_regular(c.nodes, c.degree, c.seed);
    std::string error;
    ASSERT_TRUE(g.validate(&error))
        << "nodes=" << c.nodes << " d=" << c.degree << ": " << error;
    ASSERT_EQ(g.node_count(), static_cast<std::size_t>(c.nodes));
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(g.degree(v), c.degree)
          << "nodes=" << c.nodes << " d=" << c.degree << " node " << v;
    }
  }
  // Same seed, same graph; different seed, different graph (whp).
  const GraphTopology a = GraphTopology::random_regular(64, 4, 9);
  const GraphTopology b = GraphTopology::random_regular(64, 4, 9);
  const GraphTopology c = GraphTopology::random_regular(64, 4, 10);
  bool ab_equal = true, ac_equal = true;
  for (std::uint32_t v = 0; v < a.node_count(); ++v) {
    for (std::uint32_t u = 0; u < a.node_count(); ++u) {
      ab_equal &= a.adjacent(v, u) == b.adjacent(v, u);
      ac_equal &= a.adjacent(v, u) == c.adjacent(v, u);
    }
  }
  EXPECT_TRUE(ab_equal);
  EXPECT_FALSE(ac_equal);
}

TEST(GraphTopologyTest, SmallWorldConservesEdgeCount) {
  const int n = 12;
  const auto offsets = neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const GraphTopology torus = GraphTopology::torus(n, offsets);
  for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
    const GraphTopology g = GraphTopology::small_world(n, offsets, beta, 5);
    std::string error;
    ASSERT_TRUE(g.validate(&error)) << "beta=" << beta << ": " << error;
    EXPECT_EQ(g.node_count(), torus.node_count());
    EXPECT_EQ(g.edge_count(), torus.edge_count()) << "beta=" << beta;
  }
  // beta = 0 keeps the torus edge set exactly (rows re-sorted is fine).
  const GraphTopology frozen = GraphTopology::small_world(n, offsets, 0.0, 5);
  for (std::uint32_t v = 0; v < frozen.node_count(); ++v) {
    for (std::uint32_t u = 0; u < frozen.node_count(); ++u) {
      ASSERT_EQ(frozen.adjacent(v, u), torus.adjacent(v, u))
          << "pair " << v << "," << u;
    }
  }
}

// from_edges against the obvious per-node construction (push both
// endpoints, then sort and deduplicate each row) on an edge list with
// duplicates, reversed pairs, self loops and isolated nodes.
TEST(GraphTopologyTest, FromEdgesMatchesPerNodeReference) {
  constexpr std::uint32_t kNodes = 300;
  Rng rng = Rng::stream(77, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 0; i < 1500; ++i) {
    // Ids below 250 only: nodes 250..299 stay isolated.
    const auto a = static_cast<std::uint32_t>(rng.uniform_below(250));
    const auto b = static_cast<std::uint32_t>(rng.uniform_below(250));
    edges.emplace_back(a, b);
    if (i % 7 == 0) edges.emplace_back(b, a);
  }
  std::vector<std::vector<std::uint32_t>> reference(kNodes);
  for (std::uint32_t v = 0; v < kNodes; ++v) reference[v].push_back(v);
  for (const auto& [a, b] : edges) {
    if (a == b) continue;
    reference[a].push_back(b);
    reference[b].push_back(a);
  }
  const GraphTopology g = GraphTopology::from_edges(kNodes, edges);
  std::string error;
  ASSERT_TRUE(g.validate(&error)) << error;
  ASSERT_EQ(g.node_count(), kNodes);
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    std::vector<std::uint32_t>& want = reference[v];
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const auto [row, len] = g.row(v);
    EXPECT_EQ(std::vector<std::uint32_t>(row, row + len), want)
        << "node " << v;
  }
}

TEST(GraphTopologyTest, EdgeListRoundTrip) {
  const std::string path = ::testing::TempDir() + "seg_edges_roundtrip.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# a comment line\n0 1\n1 2\n2 0\n2 3\n\n3 4\n");
  std::fclose(f);
  GraphTopology g;
  std::string error;
  ASSERT_TRUE(GraphTopology::load_edge_list(path, &g, &error)) << error;
  EXPECT_TRUE(g.validate(&error)) << error;
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_FALSE(g.adjacent(0, 3));
  std::remove(path.c_str());
}

TEST(GraphTopologyTest, EdgeListRefusesMalformedInput) {
  const std::string path = ::testing::TempDir() + "seg_edges_malformed.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0 1\n1 2x\n");
  std::fclose(f);
  GraphTopology g;
  std::string error;
  EXPECT_FALSE(GraphTopology::load_edge_list(path, &g, &error));
  // The offending token must be named.
  EXPECT_NE(error.find("2x"), std::string::npos) << error;
  std::remove(path.c_str());
  EXPECT_FALSE(GraphTopology::load_edge_list(
      ::testing::TempDir() + "seg_no_such_file.txt", &g, &error));
}

// A star whose hub neighborhood (hub + leaves) is `hub_neighborhood`.
std::vector<std::pair<std::uint32_t, std::uint32_t>> star_edges(
    std::uint32_t hub_neighborhood) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t leaf = 1; leaf < hub_neighborhood; ++leaf) {
    edges.emplace_back(0, leaf);
  }
  return edges;
}

TEST(GraphTopologyTest, EdgeListRefusesHubBeyondCountLimit) {
  // Window counts are int16: a hub with kMaxNeighborhoodSize + 1 sites in
  // its neighborhood must be refused at import, naming node and limit;
  // one exactly at the limit loads.
  const std::string path = ::testing::TempDir() + "seg_edges_hub.txt";
  for (const int hub : {kMaxNeighborhoodSize, kMaxNeighborhoodSize + 1}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const auto& [a, b] : star_edges(static_cast<std::uint32_t>(hub))) {
      std::fprintf(f, "%u %u\n", a, b);
    }
    std::fclose(f);
    GraphTopology g;
    std::string error;
    const bool loaded = GraphTopology::load_edge_list(path, &g, &error);
    if (hub <= kMaxNeighborhoodSize) {
      EXPECT_TRUE(loaded) << error;
      EXPECT_EQ(g.max_neighborhood_size(), hub);
    } else {
      EXPECT_FALSE(loaded);
      EXPECT_NE(error.find("node 0"), std::string::npos) << error;
      EXPECT_NE(error.find("32767"), std::string::npos) << error;
    }
  }
  std::remove(path.c_str());
}

TEST(GraphTopologyDeathTest, EngineRefusesHubBeyondCountLimit) {
  // Graphs built in code bypass load_edge_list; the engine itself must
  // refuse a neighborhood its int16 counts cannot hold, in every build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::from_edges(
          kMaxNeighborhoodSize + 1,
          star_edges(static_cast<std::uint32_t>(kMaxNeighborhoodSize + 1))));
  const ModelParams params{.tau = 0.45, .p = 0.5};
  EXPECT_DEATH(
      {
        Rng rng(7);
        SchellingModel model(params, graph, rng);
      },
      "int16 count limit of 32767");
}

// ---- partition --------------------------------------------------------------

TEST(GraphPartitionTest, GreedyBfsCoversAndClassifiesBoundary) {
  const GraphTopology g = GraphTopology::random_regular(200, 5, 21);
  for (const int parts : {1, 2, 4, 7}) {
    const GraphPartition partition = GraphPartition::greedy_bfs(g, parts);
    ASSERT_EQ(partition.part_count(), parts);
    std::vector<int> size(parts, 0);
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
      const int part = partition.part_of(v);
      ASSERT_GE(part, 0);
      ASSERT_LT(part, parts);
      ++size[part];
      // Boundary definition, verified against the raw adjacency.
      bool crosses = false;
      const auto [row, len] = g.row(v);
      for (int i = 0; i < len; ++i) {
        crosses |= partition.part_of(row[i]) != part;
      }
      ASSERT_EQ(partition.boundary(v), crosses) << "node " << v;
    }
    for (int part = 0; part < parts; ++part) {
      EXPECT_GT(size[part], 0) << "empty part " << part;
    }
  }
  EXPECT_TRUE(GraphPartition().trivial());
}

// ---- flip fuzz over the synthetic families ----------------------------------

TEST(GraphFuzzTest, RandomFlipsKeepEngineInvariants) {
  ModelParams params{.tau = 0.4, .p = 0.5, .tau_minus = 0.55};
  const auto stencil = neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const std::vector<std::shared_ptr<const GraphTopology>> topologies = {
      std::make_shared<const GraphTopology>(GraphTopology::lollipop(12, 20)),
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(96, 6, 31)),
      std::make_shared<const GraphTopology>(
          GraphTopology::small_world(10, stencil, 0.2, 31)),
  };
  Rng rng = Rng::stream(606060, 0);
  for (const auto& graph : topologies) {
    SchellingModel model(params, graph,
                         random_spins_count(graph->node_count(), params.p,
                                            rng));
    const std::size_t nodes = model.agent_count();
    for (int step = 0; step < 400; ++step) {
      // Arbitrary (not necessarily flippable) flips — the engine contract
      // is unconditional.
      model.flip(rng.uniform_below(static_cast<std::uint32_t>(nodes)));
      if (step % 100 == 99) ASSERT_TRUE(model.check_invariants());
    }
    ASSERT_TRUE(model.check_invariants());
    // Degree conservation: flips never touch the topology.
    std::size_t neighborhood_total = 0;
    for (std::uint32_t v = 0; v < nodes; ++v) {
      neighborhood_total += model.neighborhood_size_of(v);
    }
    EXPECT_EQ(neighborhood_total, 2 * graph->edge_count() + nodes);
    // Magnetization bookkeeping: plus_fraction equals a direct recount.
    std::size_t plus = 0;
    for (std::uint32_t v = 0; v < nodes; ++v) plus += model.spin(v) > 0;
    EXPECT_DOUBLE_EQ(model.plus_fraction(),
                     static_cast<double>(plus) / static_cast<double>(nodes));
  }
}

// ---- checked parsing ---------------------------------------------------------

TEST(CheckedParseTest, RejectsTrailingGarbageNamingToken) {
  std::int64_t i = 0;
  std::string error;
  EXPECT_FALSE(parse_i64_checked("10x", &i, &error));
  EXPECT_NE(error.find("'10x'"), std::string::npos) << error;
  EXPECT_TRUE(parse_i64_checked("10", &i, &error));
  EXPECT_EQ(i, 10);
  EXPECT_FALSE(parse_i64_checked("", &i, &error));
  EXPECT_FALSE(parse_i64_checked("1 2", &i, &error));
}

TEST(CheckedParseTest, RejectsOutOfRange) {
  std::int64_t i = 0;
  std::uint64_t u = 0;
  int narrow = 0;
  std::string error;
  EXPECT_FALSE(parse_i64_checked("99999999999999999999999", &i, &error));
  EXPECT_TRUE(parse_u64_checked("18446744073709551615", &u, &error));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(parse_u64_checked("18446744073709551616", &u, &error));
  // strtoull would silently wrap "-1"; the checked helper refuses it.
  EXPECT_FALSE(parse_u64_checked("-1", &u, &error));
  EXPECT_NE(error.find("'-1'"), std::string::npos) << error;
  // i64-representable but outside int.
  EXPECT_FALSE(parse_int_checked("3000000000", &narrow, &error));
  EXPECT_TRUE(parse_int_checked("-7", &narrow, &error));
  EXPECT_EQ(narrow, -7);
}

TEST(CheckedParseTest, DoubleRejectsGarbageOverflowAndNonFinite) {
  double d = 0.0;
  std::string error;
  EXPECT_TRUE(parse_double_checked("1e3", &d, &error));
  EXPECT_EQ(d, 1000.0);
  EXPECT_FALSE(parse_double_checked("0.5y", &d, &error));
  EXPECT_NE(error.find("'0.5y'"), std::string::npos) << error;
  EXPECT_FALSE(parse_double_checked("1e999", &d, &error));
  EXPECT_FALSE(parse_double_checked("nan", &d, &error));
  EXPECT_FALSE(parse_double_checked("inf", &d, &error));
}

TEST(ArgParserTest, RecordsMalformedNumericValues) {
  const char* argv[] = {"prog", "--n", "10x", "--tau", "0.4", "--beta",
                        "0.5z"};
  const ArgParser args(7, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);  // falls back AND records
  EXPECT_EQ(args.get_double("tau", 0.0), 0.4);
  EXPECT_EQ(args.get_double("beta", 0.1), 0.1);
  ASSERT_EQ(args.errors().size(), 2u);
  EXPECT_NE(args.errors()[0].find("--n"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("'10x'"), std::string::npos);
  EXPECT_NE(args.errors()[1].find("--beta"), std::string::npos);
}

// ---- checkpoint torn writes --------------------------------------------------

TEST(CheckpointTornWriteTest, TruncatedFilesNeverLoad) {
  CheckpointData data;
  data.seed = 99;
  data.spec_hash = 0xabcdef;
  data.metric_count = 2;
  data.done = {1, 0, 1, 1};
  data.values = {{1.5, 2.5}, {}, {3.25, -0.5}, {0.0, 42.0}};
  const std::string path = ::testing::TempDir() + "seg_ckpt_torn.txt";
  ASSERT_TRUE(save_checkpoint(path, data));

  CheckpointData loaded;
  ASSERT_TRUE(load_checkpoint(path, &loaded));
  EXPECT_EQ(loaded.seed, data.seed);
  EXPECT_EQ(loaded.done, data.done);
  EXPECT_EQ(loaded.values[2], data.values[2]);

  // Read the intact bytes, then re-write every proper prefix: a torn
  // write (power cut mid-write, rename of a half-synced file) must be
  // refused, never half-loaded.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[256];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  ASSERT_GT(bytes.size(), 40u);
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 9, bytes.size() / 2,
        bytes.size() / 4, std::size_t{10}}) {
    std::FILE* w = std::fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, keep, w), keep);
    std::fclose(w);
    CheckpointData torn;
    EXPECT_FALSE(load_checkpoint(path, &torn))
        << "truncation to " << keep << " of " << bytes.size()
        << " bytes loaded";
  }
  std::remove(path.c_str());
}

// ---- scenario topology keys --------------------------------------------------

TEST(ScenarioTopologyTest, DefaultSpecTextHasNoGraphKeys) {
  // Hash compatibility: a torus-only spec's canonical text must not gain
  // topology/graph_* lines, or every existing checkpoint would be
  // orphaned.
  const ScenarioSpec spec;
  const std::string text = spec.to_text();
  EXPECT_EQ(text.find("topology"), std::string::npos);
  EXPECT_EQ(text.find("graph_"), std::string::npos);
}

TEST(ScenarioTopologyTest, RoundTripsTopologyAxis) {
  ScenarioSpec spec;
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kRandomRegular,
                   TopologyFamily::kSmallWorld};
  spec.graph_clique = 16;
  spec.graph_degree = 6;
  spec.graph_beta = 0.25;
  spec.graph_seed = 12;
  spec.graph_nodes = 512;
  spec.metrics = {"flips", "happy_fraction"};
  std::string error;
  ASSERT_TRUE(spec.valid(&error)) << error;
  ScenarioSpec parsed;
  ASSERT_TRUE(ScenarioSpec::parse(spec.to_text(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.topology, spec.topology);
  EXPECT_EQ(parsed.graph_clique, 16);
  EXPECT_EQ(parsed.graph_degree, 6);
  EXPECT_EQ(parsed.graph_beta, 0.25);
  EXPECT_EQ(parsed.graph_seed, 12u);
  EXPECT_EQ(parsed.graph_nodes, 512u);
  EXPECT_EQ(parsed.hash(), spec.hash());
  // The topology axis is the outermost expansion loop.
  const auto points = expand_grid(parsed);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].topology, TopologyFamily::kLollipop);
  EXPECT_EQ(points[2].topology, TopologyFamily::kSmallWorld);
}

TEST(ScenarioTopologyTest, ValidRejectsBadGraphSpecs) {
  ScenarioSpec spec;
  spec.topology = {TopologyFamily::kRandomRegular};
  spec.metrics = {"flips"};
  spec.graph_nodes = 99;
  spec.graph_degree = 5;  // 99 * 5 stubs: odd-handshake violation
  std::string error;
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("even"), std::string::npos) << error;
  spec.graph_degree = 6;
  EXPECT_TRUE(spec.valid(&error)) << error;
  // Lattice-only metrics cannot ride a graph topology.
  spec.metrics = {"flips", "mean_mono_region"};
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("mean_mono_region"), std::string::npos) << error;
  // Neighborhoods beyond the engine's int16 count limit are refused up
  // front with the limit named: a random-regular degree, a lollipop
  // clique (its joint node also sees one path node).
  spec.metrics = {"flips"};
  spec.graph_nodes = 40000;
  spec.graph_degree = kMaxNeighborhoodSize;
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("32767"), std::string::npos) << error;
  spec.graph_degree = kMaxNeighborhoodSize - 1;
  EXPECT_TRUE(spec.valid(&error)) << error;
  spec.topology = {TopologyFamily::kLollipop};
  spec.graph_clique = kMaxNeighborhoodSize;
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("graph_clique"), std::string::npos) << error;
  EXPECT_NE(error.find("32767"), std::string::npos) << error;
  spec.graph_clique = kMaxNeighborhoodSize - 1;
  EXPECT_TRUE(spec.valid(&error)) << error;
  // Unknown topology names are parse errors naming the family.
  ScenarioSpec parsed;
  EXPECT_FALSE(ScenarioSpec::parse("topology = mobius\n", &parsed, &error));
  EXPECT_NE(error.find("mobius"), std::string::npos) << error;
}

}  // namespace
}  // namespace seg
