// Differential battery for the sharded parallel dynamics
// (core/parallel_dynamics.h over lattice/sharded.h).
//
// The contract under test, from strongest to weakest:
//  1. ONE shard is the serial process, bitwise: same flips, same RNG
//     consumption, same Poisson clock as run_glauber / run_kawasaki
//     driven by Rng::stream(seed, 0). Uses the golden-trajectory fixture
//     parameters (test_golden_trajectory.cc) so the serial side is itself
//     pinned by the golden constants.
//  2. For a FIXED shard count, the trajectory is bitwise identical at any
//     thread count (each shard's substream and sub-state are isolated;
//     reconciliation is serial in shard order).
//  3. At any shard count, counts/codes/memberships stay exact (full
//     recount audits pass mid-run and at absorption), every flippable
//     site sits in the band or interior part of its own shard's slice as
//     shard_boundary() says, boundary flips all run on the band chain,
//     and the absorbing states are genuine (no flippable agent remains).
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "lattice/sharded.h"

namespace seg {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_state(const SchellingModel& m, std::uint64_t a,
                         std::uint64_t b) {
  std::uint64_t h = fnv1a(m.spins().data(), m.spins().size(),
                          14695981039346656037ULL);
  h = fnv1a(&a, sizeof(a), h);
  h = fnv1a(&b, sizeof(b), h);
  return h;
}

// ---- ShardLayout geometry --------------------------------------------------

TEST(ShardLayout, TrivialLayoutHasOneShardAndNoBoundary) {
  ShardLayout layout;
  EXPECT_EQ(layout.shard_count(), 1);
  EXPECT_TRUE(layout.trivial());
  EXPECT_EQ(layout.boundary_site_count(), 0u);
  EXPECT_EQ(layout.shard_of(123), 0);
  EXPECT_FALSE(layout.boundary(123));
  EXPECT_TRUE(layout.compatible(48, 3));
}

TEST(ShardLayout, StripesPartitionAndClassify) {
  const int n = 32, w = 2, k = 4;
  const ShardLayout layout = ShardLayout::stripes(n, w, k);
  EXPECT_EQ(layout.shard_count(), k);
  EXPECT_TRUE(layout.compatible(n, w));
  EXPECT_FALSE(layout.compatible(n, w + 1));
  // Stripes of height 8: rows 0..7 -> shard 0, etc. Boundary rows are the
  // first and last w rows of each stripe.
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const auto id = static_cast<std::uint32_t>(y * n + x);
      EXPECT_EQ(layout.shard_of(id), y / 8);
      const int within = y % 8;
      EXPECT_EQ(layout.boundary(id), within < w || within >= 8 - w);
    }
  }
  EXPECT_EQ(layout.boundary_site_count(),
            static_cast<std::size_t>(k * 2 * w * n));
}

TEST(ShardLayout, IsolationInvariant) {
  // The guarantee phase A relies on: the radius-w window of every
  // interior site stays inside its own shard. Verified exhaustively.
  const int n = 30, w = 2;
  for (const ShardLayout& layout :
       {ShardLayout::stripes(n, w, 3), ShardLayout::stripes(n, w, 5),
        ShardLayout::checkerboard(n, w, 2, 3),
        ShardLayout::checkerboard(n, w, 3, 3)}) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const auto id = static_cast<std::uint32_t>(y * n + x);
        if (layout.boundary(id)) continue;
        for (int dy = -w; dy <= w; ++dy) {
          for (int dx = -w; dx <= w; ++dx) {
            const int yy = (y + dy + n) % n;
            const int xx = (x + dx + n) % n;
            const auto nb = static_cast<std::uint32_t>(yy * n + xx);
            ASSERT_EQ(layout.shard_of(nb), layout.shard_of(id))
                << "interior site (" << x << "," << y
                << ") has a window cell in another shard";
          }
        }
      }
    }
  }
}

TEST(ShardLayout, CheckerboardCutsBothAxes) {
  const int n = 24, w = 1;
  const ShardLayout layout = ShardLayout::checkerboard(n, w, 2, 2);
  EXPECT_EQ(layout.shard_count(), 4);
  EXPECT_EQ(layout.mode(), ShardMode::kCheckerboard);
  // Block of (0,0) vs (12,0) vs (0,12) vs (12,12).
  EXPECT_EQ(layout.shard_of(0), 0);
  EXPECT_EQ(layout.shard_of(12), 1);
  EXPECT_EQ(layout.shard_of(12 * n), 2);
  EXPECT_EQ(layout.shard_of(12 * n + 12), 3);
  // A column cut makes vertical strips of boundary even in interior rows.
  EXPECT_TRUE(layout.boundary(6 * n + 11));   // col 11: within 1 of cut
  EXPECT_FALSE(layout.boundary(6 * n + 6));   // deep interior
}

TEST(ShardLayout, MaxStripesRespectsWindow) {
  EXPECT_EQ(ShardLayout::max_stripes(2048, 4), 227);
  EXPECT_EQ(ShardLayout::max_stripes(32, 2), 6);
  EXPECT_EQ(ShardLayout::max_stripes(8, 3), 1);
}

// ---- 1-shard == serial, on the golden fixture ------------------------------

TEST(ShardedDifferential, OneShardGlauberIsSerialBitwise) {
  // Same model fixture as GoldenTrajectory.SchellingGlauber; the serial
  // reference below is therefore pinned (transitively) by the golden
  // hash. The sharded runner derives shard 0's stream as
  // Rng::stream(seed, 0), so the serial run uses exactly that stream.
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  const std::uint64_t dyn_seed = 987001;

  Rng init_a = Rng::stream(1001, 0);
  SchellingModel serial(p, init_a);
  Rng dyn = Rng::stream(dyn_seed, 0);
  const RunResult serial_run = run_glauber(serial, dyn);

  Rng init_b = Rng::stream(1001, 0);
  SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed);

  EXPECT_TRUE(serial_run.terminated);
  EXPECT_TRUE(parallel_run.terminated);
  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);  // bitwise
  EXPECT_EQ(parallel_run.deferred, 0u);
  EXPECT_EQ(parallel_run.reconciled, 0u);
  EXPECT_EQ(sharded.spins(), serial.spins());
}

TEST(ShardedDifferential, OneShardGlauberHonorsMaxFlipsExactly) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.45, .p = 0.5};
  const std::uint64_t dyn_seed = 987002;

  Rng init_a = Rng::stream(1002, 0);
  SchellingModel serial(p, init_a);
  Rng dyn = Rng::stream(dyn_seed, 0);
  RunOptions serial_opt;
  serial_opt.max_flips = 777;  // deliberately not a sweep-quantum multiple
  const RunResult serial_run = run_glauber(serial, dyn, serial_opt);

  Rng init_b = Rng::stream(1002, 0);
  SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
  ParallelOptions opt;
  opt.max_flips = 777;
  opt.sweep_quantum = 100;
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed, opt);

  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);
  EXPECT_EQ(sharded.spins(), serial.spins());
}

TEST(ShardedDifferential, OneShardKawasakiIsSerialBitwise) {
  // Budgeted comparison well short of absorption, so neither engine's
  // stale-check path fires and both stop exactly at max_swaps.
  ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  const std::uint64_t dyn_seed = 987003;

  Rng init_a = Rng::stream(1007, 0);
  SchellingModel serial(p, init_a);
  Rng dyn = Rng::stream(dyn_seed, 0);
  KawasakiOptions serial_opt;
  serial_opt.max_swaps = 900;
  const KawasakiResult serial_run = run_kawasaki(serial, dyn, serial_opt);

  Rng init_b = Rng::stream(1007, 0);
  SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
  ParallelKawasakiOptions opt;
  opt.max_swaps = 900;
  const ParallelKawasakiResult parallel_run =
      run_parallel_kawasaki(sharded, dyn_seed, opt);

  EXPECT_EQ(parallel_run.swaps, serial_run.swaps);
  EXPECT_EQ(parallel_run.proposals, serial_run.proposals);
  EXPECT_EQ(parallel_run.deferred, 0u);
  EXPECT_EQ(sharded.spins(), serial.spins());
}

// ---- fixed shard count: thread-count invariance ----------------------------

TEST(ShardedDifferential, GlauberInvariantAcrossThreadCounts) {
  ModelParams p{.n = 96, .w = 2, .tau = 0.45, .p = 0.5};
  const int k = 6;
  const std::uint64_t dyn_seed = 987004;

  std::uint64_t reference_hash = 0;
  ParallelRunResult reference;
  for (const std::size_t threads : {1u, 2u, 6u}) {
    Rng init = Rng::stream(2002, 0);
    SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, k));
    ParallelOptions opt;
    opt.threads = threads;
    const ParallelRunResult run = run_parallel_glauber(model, dyn_seed, opt);
    EXPECT_TRUE(run.terminated);
    EXPECT_TRUE(model.check_invariants());
    const std::uint64_t h = hash_state(model, run.flips, run.sweeps);
    if (threads == 1) {
      reference_hash = h;
      reference = run;
      // The decomposition must actually be exercised at this size.
      EXPECT_GT(run.deferred, 0u);
    } else {
      EXPECT_EQ(h, reference_hash) << "threads=" << threads;
      EXPECT_EQ(run.flips, reference.flips);
      EXPECT_EQ(run.deferred, reference.deferred);
      EXPECT_EQ(run.reconciled, reference.reconciled);
      EXPECT_EQ(run.final_time, reference.final_time);
    }
  }
}

TEST(ShardedDifferential, KawasakiInvariantAcrossThreadCounts) {
  ModelParams p{.n = 64, .w = 2, .tau = 0.4, .p = 0.5};
  const int k = 4;
  const std::uint64_t dyn_seed = 987005;

  std::uint64_t reference_hash = 0;
  ParallelKawasakiResult reference;
  std::int64_t reference_magnetization = 0;
  for (const std::size_t threads : {1u, 4u}) {
    Rng init = Rng::stream(2003, 0);
    SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, k));
    std::int64_t magnetization = 0;
    for (const std::int8_t s : model.spins()) magnetization += s;
    ParallelKawasakiOptions opt;
    opt.threads = threads;
    opt.max_swaps = 600;
    const ParallelKawasakiResult run =
        run_parallel_kawasaki(model, dyn_seed, opt);
    EXPECT_TRUE(model.check_invariants());
    // Swap dynamics conserve the magnetization exactly.
    std::int64_t after = 0;
    for (const std::int8_t s : model.spins()) after += s;
    EXPECT_EQ(after, magnetization);
    const std::uint64_t h = hash_state(model, run.swaps, run.proposals);
    if (threads == 1) {
      reference_hash = h;
      reference = run;
      reference_magnetization = after;
    } else {
      EXPECT_EQ(h, reference_hash) << "threads=" << threads;
      EXPECT_EQ(run.swaps, reference.swaps);
      EXPECT_EQ(run.proposals, reference.proposals);
      EXPECT_EQ(run.deferred, reference.deferred);
      EXPECT_EQ(after, reference_magnetization);
    }
  }
}

// ---- sharded semantics at k > 1 --------------------------------------------

TEST(ShardedDifferential, ShardedRunsAreRepeatableAndExact) {
  // Stripes and checkerboard both: two identically-seeded runs agree
  // bitwise, audits pass at absorption, and the absorbing state is real.
  ModelParams p{.n = 60, .w = 2, .tau = 0.45, .p = 0.5};
  for (const bool checkers : {false, true}) {
    const ShardLayout layout =
        checkers ? ShardLayout::checkerboard(p.n, p.w, 2, 2)
                 : ShardLayout::stripes(p.n, p.w, 4);
    std::uint64_t first_hash = 0;
    for (int repeat = 0; repeat < 2; ++repeat) {
      Rng init = Rng::stream(2004, 0);
      SchellingModel model(p, init, layout);
      const ParallelRunResult run = run_parallel_glauber(model, 987006);
      EXPECT_TRUE(run.terminated);
      EXPECT_TRUE(model.terminated());
      EXPECT_TRUE(model.check_invariants());
      for (std::uint32_t id = 0; id < model.agent_count(); ++id) {
        ASSERT_FALSE(model.is_flippable(id)) << "site " << id;
      }
      const std::uint64_t h = hash_state(model, run.flips, run.deferred);
      if (repeat == 0) {
        first_hash = h;
      } else {
        EXPECT_EQ(h, first_hash) << (checkers ? "checkerboard" : "stripes");
      }
    }
  }
}

TEST(ShardedDifferential, LyapunovIncreasesUnderShardedGlauber) {
  // Only flippable agents ever flip (phase A samples the flippable set,
  // phase B re-validates), so the paper's Lyapunov argument applies to
  // the sharded process too: the aggregate same-type count must strictly
  // increase between checkpoints that contain at least one flip.
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(2005, 0);
  SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
  std::int64_t lyapunov = model.lyapunov();
  ParallelOptions opt;
  opt.sweep_quantum = 64;
  for (int burst = 0; burst < 20; ++burst) {
    opt.max_sweeps = 1;
    const ParallelRunResult run = run_parallel_glauber(model, 987007, opt);
    const std::int64_t next = model.lyapunov();
    if (run.flips > 0) {
      EXPECT_GT(next, lyapunov) << "burst " << burst;
    } else {
      EXPECT_EQ(next, lyapunov);
    }
    lyapunov = next;
    if (model.terminated()) break;
  }
}

TEST(ShardedDifferential, FourShardGoldenTrajectory) {
  // Frozen golden hash for a k = 4 stripe run: pins the k-shard
  // trajectory — interior/band split, slice horizon, band-chain order,
  // per-chain substream derivation — against future refactors the same
  // way the serial golden suite pins the serial engines. Re-pinned when
  // phase A became interior-only with the band on its own chain (the
  // k-shard process itself changed).
  constexpr std::uint64_t kGoldenSharded4 = 0x6190f738e604ef38ull;
  ModelParams p{.n = 64, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(3001, 0);
  SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
  const ParallelRunResult run = run_parallel_glauber(model, 3002);
  EXPECT_TRUE(run.terminated);
  EXPECT_EQ(run.flips, 2658u);
  EXPECT_EQ(run.deferred, 972u);
  EXPECT_EQ(run.reconciled, 972u);
  std::uint64_t h = fnv1a(model.spins().data(), model.spins().size(),
                          14695981039346656037ULL);
  h = fnv1a(&run.flips, sizeof(run.flips), h);
  h = fnv1a(&run.deferred, sizeof(run.deferred), h);
  h = fnv1a(&run.reconciled, sizeof(run.reconciled), h);
  h = fnv1a(&run.final_time, sizeof(run.final_time), h);
  EXPECT_EQ(h, kGoldenSharded4);
}

// ---- band split: interior chains and the band chain -----------------------

// Owning shard of a site, for either sharding scheme.
using OwnerFn = std::function<int(std::uint32_t)>;

// Every flippable site sits in exactly one shard slice — its owner's — in
// the band part iff shard_boundary(id); no other site is in any slice.
void expect_band_split(const SchellingModel& model, const OwnerFn& owner) {
  std::size_t members = 0;
  for (int s = 0; s < model.shard_count(); ++s) {
    const AgentSet& slice = model.flippable_set(s);
    members += slice.size();
    ASSERT_EQ(slice.band_size() + slice.interior_size(), slice.size());
    for (std::size_t i = 0; i < slice.size(); ++i) {
      // The band part is the prefix of the slice.
      ASSERT_EQ(i < slice.band_size(), model.shard_boundary(slice.at(i)))
          << "shard " << s << " slot " << i;
    }
  }
  ASSERT_EQ(members, model.count_flippable());
  for (std::uint32_t id = 0; id < model.agent_count(); ++id) {
    int holders = 0;
    int holder = -1;
    for (int s = 0; s < model.shard_count(); ++s) {
      if (model.flippable_set(s).contains(id)) {
        ++holders;
        holder = s;
      }
    }
    if (!model.is_flippable(id)) {
      ASSERT_EQ(holders, 0) << "site " << id;
      continue;
    }
    ASSERT_EQ(holders, 1) << "site " << id;
    ASSERT_EQ(holder, owner(id)) << "site " << id;
    ASSERT_EQ(model.flippable_set(holder).in_band(id),
              model.shard_boundary(id))
        << "site " << id;
  }
}

std::shared_ptr<const GraphTopology> regular_graph() {
  return std::make_shared<const GraphTopology>(
      GraphTopology::random_regular(512, 8, /*seed=*/7));
}

TEST(ShardedDifferential, BandSplitHoldsThroughoutRuns) {
  // Audited after construction, after every single-sweep burst and at
  // absorption, on stripes, a checkerboard and a graph partition.
  ModelParams p{.n = 48, .w = 2, .tau = 0.45, .p = 0.5};
  const auto run_audited = [](SchellingModel& model, const OwnerFn& owner) {
    expect_band_split(model, owner);
    ASSERT_TRUE(model.check_invariants());
    ParallelOptions opt;
    opt.sweep_quantum = 32;
    opt.max_sweeps = 1;
    opt.threads = 2;
    for (int burst = 0; burst < 400 && !model.terminated(); ++burst) {
      run_parallel_glauber(model, 990001 + burst, opt);
      expect_band_split(model, owner);
    }
    EXPECT_TRUE(model.terminated());
    EXPECT_TRUE(model.check_invariants());
  };
  for (const ShardLayout& layout :
       {ShardLayout::stripes(p.n, p.w, 4),
        ShardLayout::checkerboard(p.n, p.w, 2, 3)}) {
    Rng init = Rng::stream(4001, 0);
    SchellingModel model(p, init, layout);
    run_audited(model, [&](std::uint32_t id) { return layout.shard_of(id); });
  }
  const auto graph = regular_graph();
  const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 4);
  ASSERT_GT(partition.boundary_site_count(), 0u);
  Rng init = Rng::stream(4002, 0);
  SchellingModel model(p, graph, init, partition);
  run_audited(model,
              [&](std::uint32_t id) { return partition.part_of(id); });
}

// All +1 except isolated -1 agents at the given sites: exactly those
// agents are flippable (tau = 0.45, w = 2), and flipping each once ends
// the run.
std::vector<std::int8_t> plus_sea_with(int n,
                                       const std::vector<std::uint32_t>& ids) {
  std::vector<std::int8_t> spins(static_cast<std::size_t>(n) * n, 1);
  for (const std::uint32_t id : ids) spins[id] = -1;
  return spins;
}

TEST(ShardedDifferential, BoundaryOnlyEndgameTerminates) {
  // Every flippable site is in the band: the interior chains have nothing
  // to do, and the band chain alone must absorb the run.
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  const ShardLayout layout = ShardLayout::stripes(p.n, p.w, 4);
  std::vector<std::uint32_t> minus;
  for (int s = 0; s < 4; ++s) {
    for (const int y : {16 * s, 16 * s + 1, 16 * s + 15}) {
      for (const int x : {3, 20, 41}) {
        minus.push_back(static_cast<std::uint32_t>(y * p.n + x + s));
      }
    }
  }
  SchellingModel model(p, plus_sea_with(p.n, minus), layout);
  ASSERT_EQ(model.count_flippable(), minus.size());
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(model.flippable_set(s).interior_size(), 0u);
  }
  for (const std::size_t threads : {1u, 4u}) {
    SchellingModel run_model(p, plus_sea_with(p.n, minus), layout);
    ParallelOptions opt;
    opt.threads = threads;
    const ParallelRunResult run = run_parallel_glauber(run_model, 4003, opt);
    EXPECT_TRUE(run.terminated);
    EXPECT_EQ(run.flips, minus.size());
    EXPECT_EQ(run.deferred, minus.size());
    EXPECT_EQ(run.reconciled, minus.size());
    EXPECT_LT(run.sweeps, 64u);
    EXPECT_TRUE(run_model.check_invariants());
    for (std::uint32_t id = 0; id < run_model.agent_count(); ++id) {
      ASSERT_FALSE(run_model.is_flippable(id)) << "site " << id;
    }
  }
}

TEST(ShardedDifferential, EmptyBandSweepMakesProgress) {
  // No band site is ever flippable: phase B has nothing to draw, and each
  // sweep must still advance the interiors instead of spinning.
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  const ShardLayout layout = ShardLayout::stripes(p.n, p.w, 4);
  std::vector<std::uint32_t> minus;
  for (int s = 0; s < 4; ++s) {
    for (const int x : {5, 30, 50}) {
      minus.push_back(static_cast<std::uint32_t>((16 * s + 7) * p.n + x));
    }
  }
  SchellingModel model(p, plus_sea_with(p.n, minus), layout);
  std::size_t band = 0;
  for (int s = 0; s < 4; ++s) band += model.flippable_set(s).band_size();
  ASSERT_EQ(band, 0u);
  ASSERT_EQ(model.count_flippable(), minus.size());

  ParallelOptions opt;
  opt.max_sweeps = 1;
  std::uint64_t flips = 0;
  std::uint64_t sweeps = 0;
  while (!model.terminated()) {
    ASSERT_LT(sweeps, 64u) << "no progress";
    const ParallelRunResult run =
        run_parallel_glauber(model, 4004 + sweeps, opt);
    EXPECT_EQ(run.sweeps, 1u);
    EXPECT_EQ(run.deferred, 0u);
    flips += run.flips;
    ++sweeps;
  }
  EXPECT_EQ(flips, minus.size());
  EXPECT_TRUE(model.check_invariants());

  // The first sweep alone flips something.
  SchellingModel fresh(p, plus_sea_with(p.n, minus), layout);
  EXPECT_GT(run_parallel_glauber(fresh, 4005, opt).flips, 0u);
}

TEST(ShardedDifferential, ThreadInvariantOnEveryShardingScheme) {
  // Stripes, a checkerboard and a multi-part graph partition, each at 1,
  // 2 and 4 threads: the same trajectory bitwise.
  ModelParams p{.n = 60, .w = 2, .tau = 0.45, .p = 0.5};
  const auto graph = regular_graph();
  const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 4);
  for (int scheme = 0; scheme < 3; ++scheme) {
    std::uint64_t reference_hash = 0;
    ParallelRunResult reference;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      Rng init = Rng::stream(4006, 0);
      SchellingModel model =
          scheme == 0 ? SchellingModel(p, init,
                                       ShardLayout::stripes(p.n, p.w, 4))
          : scheme == 1
              ? SchellingModel(p, init,
                               ShardLayout::checkerboard(p.n, p.w, 2, 2))
              : SchellingModel(p, graph, init, partition);
      ParallelOptions opt;
      opt.threads = threads;
      const ParallelRunResult run = run_parallel_glauber(model, 4007, opt);
      EXPECT_TRUE(run.terminated);
      EXPECT_TRUE(model.check_invariants());
      EXPECT_GT(run.deferred, 0u) << "scheme " << scheme;
      const std::uint64_t h = hash_state(model, run.flips, run.sweeps);
      if (threads == 1) {
        reference_hash = h;
        reference = run;
        continue;
      }
      EXPECT_EQ(h, reference_hash)
          << "scheme " << scheme << ", " << threads << " threads";
      EXPECT_EQ(run.flips, reference.flips);
      EXPECT_EQ(run.deferred, reference.deferred);
      EXPECT_EQ(run.reconciled, reference.reconciled);
      EXPECT_EQ(run.final_time, reference.final_time);
    }
  }
}

TEST(ShardedDifferential, MaxFlipsOvershootsByAtMostTheShardCount) {
  // The k interior chains and the band chain share the remaining budget.
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  for (const std::uint64_t budget : {1u, 5u, 777u}) {
    Rng init = Rng::stream(4008, 0);
    SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
    ParallelOptions opt;
    opt.max_flips = budget;
    const ParallelRunResult run = run_parallel_glauber(model, 4009, opt);
    EXPECT_GE(run.flips, budget);
    EXPECT_LE(run.flips, budget + 4);
    EXPECT_TRUE(model.check_invariants());
  }
}

TEST(ShardedDifferential, RunResultAdapter) {
  ParallelRunResult parallel;
  parallel.flips = 42;
  parallel.sweeps = 7;
  parallel.final_time = 1.5;
  parallel.terminated = true;
  const RunResult run = to_run_result(parallel);
  EXPECT_EQ(run.flips, 42u);
  EXPECT_EQ(run.rounds, 7u);
  EXPECT_EQ(run.final_time, 1.5);
  EXPECT_TRUE(run.terminated);
}

}  // namespace
}  // namespace seg
