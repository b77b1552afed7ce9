#include "analysis/almost.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "analysis/regions.h"
#include "core/model.h"

namespace seg {
namespace {

TEST(Almost, ThresholdFormula) {
  EXPECT_NEAR(almost_mono_threshold(0.1, 25), std::exp(-2.5), 1e-12);
  EXPECT_LT(almost_mono_threshold(0.1, 441), almost_mono_threshold(0.1, 25));
}

TEST(Almost, UniformGridSaturates) {
  const int n = 11;
  std::vector<std::int8_t> spins(n * n, -1);
  const auto field = almost_mono_field(spins, n, 0.05);
  EXPECT_EQ(largest_almost_region(field), ball_size((n - 1) / 2));
}

TEST(Almost, ToleratesSparseMinority) {
  // One -1 in a 13x13 all-+1 grid. With ratio threshold 0.05 a ball of
  // radius 3 (49 sites, 1 minority, ratio 1/48 ~ 0.021) passes, while the
  // strictly monochromatic radius at the minority's own center is 0.
  const int n = 13;
  std::vector<std::int8_t> spins(n * n, 1);
  spins[6 * n + 6] = -1;
  const auto field = almost_mono_field(spins, n, 0.05);
  const std::size_t center = 6 * n + 6;
  EXPECT_GE(field.radius[center], 3);
  const auto mono = mono_region_field(spins, n);
  EXPECT_EQ(mono.radius[center], 0);
}

TEST(Almost, RejectsBalancedMixtures) {
  // Checkerboard: minority ratio ~ 1 everywhere; no almost-mono ball of
  // radius >= 1 under a small threshold.
  const int n = 10;
  std::vector<std::int8_t> spins(n * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      spins[y * n + x] = ((x + y) % 2 == 0) ? 1 : -1;
    }
  }
  const auto field = almost_mono_field(spins, n, 0.1);
  for (const auto r : field.radius) EXPECT_EQ(r, 0);
}

TEST(Almost, MatchesBruteForceOnRandomGrid) {
  const int n = 11;
  Rng rng(3);
  std::vector<std::int8_t> spins(n * n);
  for (auto& s : spins) s = rng.bernoulli(0.8) ? 1 : -1;
  const double threshold = 0.08;
  const auto field = almost_mono_field(spins, n, threshold);
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      std::int32_t best = 0;
      for (int r = 1; r <= (n - 1) / 2; ++r) {
        std::int64_t plus = 0;
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            plus += spins[torus_wrap(cy + dy, n) * n + torus_wrap(cx + dx, n)] > 0;
          }
        }
        const std::int64_t size = ball_size(r);
        const std::int64_t minority = std::min(plus, size - plus);
        if (static_cast<double>(minority) <=
            threshold * static_cast<double>(size - minority)) {
          best = r;
        }
      }
      EXPECT_EQ(field.radius[cy * n + cx], best)
          << "center (" << cx << "," << cy << ")";
    }
  }
}

// Reference radius field: every radius up to max_radius, no cutoff.
std::vector<std::int32_t> full_radius_scan(
    const std::vector<std::int8_t>& spins, int n, double threshold,
    int max_radius) {
  std::vector<std::int32_t> radius(spins.size(), 0);
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      for (int r = 1; r <= max_radius; ++r) {
        std::int64_t plus = 0;
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            plus += spins[torus_wrap(cy + dy, n) * n + torus_wrap(cx + dx, n)] > 0;
          }
        }
        const std::int64_t size = ball_size(r);
        const std::int64_t minority = std::min(plus, size - plus);
        if (static_cast<double>(minority) <=
            threshold * static_cast<double>(size - minority)) {
          radius[static_cast<std::size_t>(cy) * n + cx] = r;
        }
      }
    }
  }
  return radius;
}

TEST(Almost, CutoffMatchesFullRadiusScan) {
  const int n = 15;
  const int rmax = (n - 1) / 2;
  Rng rng(8);
  std::vector<std::int8_t> mixed(n * n);
  for (auto& s : mixed) s = rng.bernoulli(0.5) ? 1 : -1;
  std::vector<std::int8_t> skewed(n * n);
  for (auto& s : skewed) s = rng.bernoulli(0.93) ? 1 : -1;
  const std::vector<std::int8_t> uniform(n * n, 1);

  // Tiny threshold on a mixed grid: threshold * ball_size(rmax) < 1, so
  // the cutoff fires at r = 1 at every center whose radius-1 ball holds
  // both types, which leaves those centers at radius 0.
  const double tiny = 1e-4;
  ASSERT_LT(tiny * static_cast<double>(ball_size(rmax)), 1.0);
  const auto mixed_ref = full_radius_scan(mixed, n, tiny, rmax);
  EXPECT_GT(std::count(mixed_ref.begin(), mixed_ref.end(), 0), n * n / 2);
  EXPECT_EQ(almost_mono_field(mixed, n, tiny).radius, mixed_ref);
  // Threshold 0 admits monochromatic balls only; the cutoff is 0 too.
  EXPECT_EQ(almost_mono_field(mixed, n, 0.0).radius,
            full_radius_scan(mixed, n, 0.0, rmax));

  // Threshold 1: minority <= size / 2 < ball_size(rmax), never cut off.
  const auto skewed_ref = full_radius_scan(skewed, n, 1.0, rmax);
  EXPECT_EQ(almost_mono_field(skewed, n, 1.0).radius, skewed_ref);

  // A mid threshold, where the cutoff lands at varying radii, with and
  // without a max_radius cap.
  for (const int cap : {rmax, 3}) {
    const auto ref = full_radius_scan(skewed, n, 0.05, cap);
    EXPECT_EQ(almost_mono_field(skewed, n, 0.05, cap).radius, ref) << cap;
  }

  // All one type: minority 0 everywhere, every radius passes.
  for (const double threshold : {0.0, tiny, 0.05, 1.0}) {
    const auto ref = full_radius_scan(uniform, n, threshold, rmax);
    EXPECT_EQ(almost_mono_field(uniform, n, threshold).radius, ref);
    for (const auto r : ref) EXPECT_EQ(r, rmax);
  }
}

TEST(Almost, RegionOfAgentAtLeastMonoRegion) {
  // Almost-mono regions generalize monochromatic ones (threshold >= 0), so
  // M'(u) >= M(u) pointwise for any threshold.
  const int n = 15;
  Rng rng(4);
  std::vector<std::int8_t> spins(n * n);
  for (auto& s : spins) s = rng.bernoulli(0.75) ? 1 : -1;
  const auto almost = almost_mono_field(spins, n, 0.05);
  const auto mono = mono_region_field(spins, n);
  for (const Point u : {Point{0, 0}, Point{7, 7}, Point{14, 3}}) {
    EXPECT_GE(almost_region_size_of(almost, u), mono_region_size_of(mono, u));
  }
}

TEST(Almost, MaxRadiusParameterCapsSearch) {
  const int n = 21;
  std::vector<std::int8_t> spins(n * n, 1);
  const auto field = almost_mono_field(spins, n, 0.1, 2);
  for (const auto r : field.radius) EXPECT_LE(r, 2);
}

TEST(Almost, MeanEstimatorWithinBounds) {
  const int n = 13;
  Rng rng(5);
  std::vector<std::int8_t> spins(n * n);
  for (auto& s : spins) s = rng.bernoulli(0.9) ? 1 : -1;
  const auto field = almost_mono_field(spins, n, 0.1);
  Rng sample(6);
  const double mean = mean_almost_region_size(field, 40, sample);
  EXPECT_GE(mean, 1.0);
  EXPECT_LE(mean, static_cast<double>(ball_size((n - 1) / 2)));
}

TEST(Almost, ModelOverloadUsesDynamicsN) {
  ModelParams p{.n = 16, .w = 2, .tau = 0.4, .p = 0.5};
  Rng rng(7);
  SchellingModel m(p, rng);
  const auto field = almost_mono_field(m, 0.1);
  EXPECT_NEAR(field.ratio_threshold, std::exp(-0.1 * 25), 1e-12);
}

}  // namespace
}  // namespace seg
