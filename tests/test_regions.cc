#include "analysis/regions.h"

#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/model.h"

namespace seg {
namespace {

TEST(Regions, BallSize) {
  EXPECT_EQ(ball_size(0), 1);
  EXPECT_EQ(ball_size(1), 9);
  EXPECT_EQ(ball_size(3), 49);
}

TEST(Regions, UniformGridHasMaximalRegions) {
  const int n = 9;
  std::vector<std::int8_t> spins(n * n, 1);
  const auto field = mono_region_field(spins, n);
  EXPECT_EQ(largest_mono_region(field), ball_size((n - 1) / 2));
  EXPECT_EQ(mono_region_size_of(field, {0, 0}), ball_size((n - 1) / 2));
}

TEST(Regions, MinorityAgentGetsSmallRegion) {
  const int n = 15;
  std::vector<std::int8_t> spins(n * n, 1);
  spins[7 * n + 7] = -1;
  const auto field = mono_region_field(spins, n);
  // The minority agent is in no monochromatic ball of radius >= 1.
  EXPECT_EQ(mono_region_size_of(field, {7, 7}), 1);
  // A far-away agent still enjoys a big region.
  EXPECT_GT(mono_region_size_of(field, {0, 0}), 9);
}

TEST(Regions, AgentCoveredByOffCenterBall) {
  // u can lie inside a large ball centered elsewhere even if every ball
  // centered at u is small.
  const int n = 17;
  std::vector<std::int8_t> spins(n * n, 1);
  // A -1 at distance 2 from u = (8, 8): balls centered at u have radius
  // <= 1, but a ball centered at (12, 12) with radius 3 still covers u...
  spins[10 * n + 10] = -1;
  const auto field = mono_region_field(spins, n);
  const std::size_t u_idx = 8 * n + 8;
  EXPECT_LE(field.radius[u_idx], 1);
  EXPECT_GT(mono_region_size_of(field, {8, 8}), ball_size(1));
}

TEST(Regions, MeanOverSamplesBetweenExtremes) {
  const int n = 21;
  std::vector<std::int8_t> spins(n * n, 1);
  spins[3 * n + 3] = -1;
  const auto field = mono_region_field(spins, n);
  Rng rng(5);
  const double mean = mean_mono_region_size(field, 64, rng);
  EXPECT_GE(mean, 1.0);
  EXPECT_LE(mean, static_cast<double>(ball_size((n - 1) / 2)));
}

TEST(Regions, SegregationIncreasesMeanRegionSize) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init(6);
  SchellingModel m(p, init);
  const auto before_field = mono_region_field(m);
  Rng s1(7);
  const double before = mean_mono_region_size(before_field, 32, s1);
  Rng dyn(8);
  run_glauber(m, dyn);
  const auto after_field = mono_region_field(m);
  Rng s2(7);
  const double after = mean_mono_region_size(after_field, 32, s2);
  EXPECT_GT(after, before);
}

TEST(Regions, FieldFromModelMatchesFieldFromSpins) {
  ModelParams p{.n = 16, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init(9);
  SchellingModel m(p, init);
  const auto a = mono_region_field(m);
  const auto b = mono_region_field(m.spins(), m.side());
  EXPECT_EQ(a.radius, b.radius);
}

// Reference M(u): every center on the torus, no window.
std::int64_t full_scan_cover(const std::vector<std::int32_t>& radius, int n,
                             Point u) {
  std::int64_t best = 1;
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      const std::int32_t r = radius[static_cast<std::size_t>(cy) * n + cx];
      if (r > 0 && torus_linf({cx, cy}, u, n) <= r) {
        best = std::max(best, ball_size(r));
      }
    }
  }
  return best;
}

TEST(Regions, WindowedCoverMatchesFullScan) {
  // Radius fields whose largest radius puts the window well inside the
  // torus, just inside it (2 rmax + 1 = n - 1), exactly at it, and past
  // it (the whole torus), for odd and even sides; every agent is
  // checked, so covers that wrap around the torus edge are included.
  Rng rng(12);
  for (const int n : {13, 14}) {
    // One ball alone, so no other center can mask a missed offset: the
    // window must reach torus distance n / 2 on both sides.
    for (std::int32_t r = 1; r <= n; ++r) {
      std::vector<std::int32_t> radius(static_cast<std::size_t>(n) * n, 0);
      radius[rng.uniform_below(radius.size())] = r;
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          ASSERT_EQ(covering_ball_size(radius, n, {x, y}),
                    full_scan_cover(radius, n, {x, y}))
              << "n=" << n << " lone r=" << r << " u=(" << x << "," << y
              << ")";
        }
      }
    }
    for (const std::int32_t cap : {0, 1, 3, (n - 2) / 2, (n - 1) / 2, n / 2,
                                   n}) {
      std::vector<std::int32_t> radius(static_cast<std::size_t>(n) * n);
      for (auto& r : radius) {
        r = static_cast<std::int32_t>(rng.uniform_below(cap + 1));
      }
      radius[rng.uniform_below(radius.size())] = cap;
      const std::int32_t rmax = largest_radius(radius);
      ASSERT_EQ(rmax, cap);
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          ASSERT_EQ(covering_ball_size(radius, n, {x, y}),
                    full_scan_cover(radius, n, {x, y}))
              << "n=" << n << " rmax=" << rmax << " u=(" << x << "," << y
              << ")";
        }
      }
    }
  }
}

TEST(Regions, WindowedMeanMatchesFullScanDraws) {
  // The estimator draws the same agents in the same order and sums the
  // same values, so it is bitwise the full-scan mean.
  ModelParams p{.n = 48, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init(13);
  SchellingModel m(p, init);
  Rng dyn(14);
  run_glauber(m, dyn);
  const auto field = mono_region_field(m);
  ASSERT_LT(2 * largest_radius(field.radius) + 1, p.n);
  Rng a(15);
  const double windowed = mean_mono_region_size(field, 200, a);
  Rng b(15);
  double sum = 0.0;
  for (int s = 0; s < 200; ++s) {
    const auto id = b.uniform_below(static_cast<std::uint64_t>(p.n) * p.n);
    sum += static_cast<double>(full_scan_cover(
        field.radius, p.n,
        {static_cast<int>(id % p.n), static_cast<int>(id / p.n)}));
  }
  EXPECT_EQ(windowed, sum / 200.0);
  for (int y = 0; y < p.n; y += 5) {
    for (int x = 0; x < p.n; x += 3) {
      EXPECT_EQ(mono_region_size_of(field, {x, y}),
                full_scan_cover(field.radius, p.n, {x, y}));
    }
  }
}

TEST(Regions, BruteForceAgreementOnSmallRandomGrid) {
  const int n = 9;
  Rng rng(10);
  std::vector<std::int8_t> spins(n * n);
  for (auto& s : spins) s = rng.bernoulli(0.6) ? 1 : -1;
  const auto field = mono_region_field(spins, n);

  // Brute force M(u): enumerate all centers and radii.
  const auto brute_m = [&](Point u) {
    std::int64_t best = 1;
    for (int cy = 0; cy < n; ++cy) {
      for (int cx = 0; cx < n; ++cx) {
        for (int r = (n - 1) / 2; r >= 1; --r) {
          if (torus_linf({cx, cy}, u, n) > r) continue;
          bool mono = true;
          const std::int8_t t = spins[cy * n + cx];
          for (int dy = -r; dy <= r && mono; ++dy) {
            for (int dx = -r; dx <= r; ++dx) {
              if (spins[torus_wrap(cy + dy, n) * n + torus_wrap(cx + dx, n)] !=
                  t) {
                mono = false;
                break;
              }
            }
          }
          if (mono) {
            best = std::max(best, ball_size(r));
            break;
          }
        }
      }
    }
    return best;
  };

  for (const Point u : {Point{0, 0}, Point{4, 4}, Point{8, 2}, Point{3, 7}}) {
    EXPECT_EQ(mono_region_size_of(field, u), brute_m(u))
        << "u=(" << u.x << "," << u.y << ")";
  }
}

}  // namespace
}  // namespace seg
