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

// Minority count of the ball of every radius 0..(n - 1) / 2 around every
// center (index c * (rmax + 1) + r), by direct counting ring by ring.
std::vector<std::int64_t> ball_minorities(const std::vector<std::int8_t>& spins,
                                          int n) {
  const int rmax = (n - 1) / 2;
  const auto plus_at = [&](int x, int y) {
    return spins[static_cast<std::size_t>(torus_wrap(y, n)) * n +
                 torus_wrap(x, n)] > 0;
  };
  std::vector<std::int64_t> minority(spins.size() * (rmax + 1));
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      const std::size_t c = static_cast<std::size_t>(cy) * n + cx;
      std::int64_t plus = plus_at(cx, cy);
      for (int r = 0; r <= rmax; ++r) {
        if (r > 0) {
          for (int k = -r; k <= r; ++k) {
            plus += plus_at(cx + k, cy - r) + plus_at(cx + k, cy + r);
          }
          for (int k = -r + 1; k <= r - 1; ++k) {
            plus += plus_at(cx - r, cy + k) + plus_at(cx + r, cy + k);
          }
        }
        minority[c * (rmax + 1) + r] = std::min(plus, ball_size(r) - plus);
      }
    }
  }
  return minority;
}

// Reference radius field: every radius up to max_radius, no cutoff.
std::vector<std::int32_t> full_radius_scan(
    const std::vector<std::int64_t>& minority, int n, double threshold,
    int max_radius) {
  const int rmax = (n - 1) / 2;
  std::vector<std::int32_t> radius(static_cast<std::size_t>(n) * n, 0);
  for (std::size_t c = 0; c < radius.size(); ++c) {
    for (int r = 1; r <= max_radius; ++r) {
      const std::int64_t m = minority[c * (rmax + 1) + r];
      if (static_cast<double>(m) <=
          threshold * static_cast<double>(ball_size(r) - m)) {
        radius[c] = r;
      }
    }
  }
  return radius;
}

TEST(Almost, CutoffMatchesFullRadiusScan) {
  Rng rng(8);
  for (const int n : {15, 64, 65}) {
    const int rmax = (n - 1) / 2;
    const double tiny = 1e-4;
    ASSERT_LT(tiny * static_cast<double>(ball_size(rmax)), 1.0);
    ASSERT_LT(0.05 * static_cast<double>(ball_size(1)), 1.0);
    ASSERT_GE(0.05 * static_cast<double>(ball_size(3)), 1.0);
    struct Case {
      double threshold;
      int cap;  // max_radius; 0 = (n - 1) / 2
    };
    const Case cases[] = {
        // threshold * ball_size(max_radius) < 1: the mono shortcut, also
        // under a cap that makes a mid threshold take it.
        {tiny, 0}, {0.05, 1},
        // A mid threshold whose cutoff lands at varying radii, with and
        // without a cap.
        {0.05, 0}, {0.05, 3},
        // Threshold 1 is never cut off; threshold 0 admits monochromatic
        // balls only; a negative threshold admits no ball of radius >= 1.
        {1.0, 0}, {0.0, 0}, {-0.5, 0}};
    const std::vector<std::int8_t> uniform(static_cast<std::size_t>(n) * n,
                                           1);
    for (const double p : {0.5, 0.93}) {
      const auto spins = random_spins(n, p, rng);
      const auto minority = ball_minorities(spins, n);
      const auto mono = mono_region_field(spins, n);
      for (const Case& c : cases) {
        const int cap = c.cap > 0 ? c.cap : rmax;
        const auto field = almost_mono_field(spins, n, c.threshold, c.cap);
        const auto ref = full_radius_scan(minority, n, c.threshold, cap);
        ASSERT_EQ(field.radius, ref)
            << "n=" << n << " p=" << p << " threshold=" << c.threshold
            << " cap=" << cap;
        if (c.threshold == tiny && p == 0.5) {
          // The cut fires at r = 1 wherever the radius-1 ball is mixed.
          EXPECT_GT(std::count(ref.begin(), ref.end(), 0), n * n / 2);
        }
        // Every monochromatic ball passes any threshold >= 0.
        if (c.threshold < 0.0) continue;
        for (std::size_t i = 0; i < field.radius.size(); ++i) {
          ASSERT_GE(field.radius[i], std::min(mono.radius[i], cap))
              << "n=" << n << " p=" << p << " threshold=" << c.threshold
              << " cap=" << cap << " center " << i;
        }
      }
    }
    // All one type: minority 0 everywhere, every radius up to the cap
    // passes any threshold >= 0.
    for (const Case& c : cases) {
      if (c.threshold < 0.0) continue;
      const int cap = c.cap > 0 ? c.cap : rmax;
      for (const auto r :
           almost_mono_field(uniform, n, c.threshold, c.cap).radius) {
        ASSERT_EQ(r, cap) << "n=" << n << " threshold=" << c.threshold;
      }
    }
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
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      EXPECT_GE(almost_region_size_of(almost, {x, y}),
                mono_region_size_of(mono, {x, y}));
    }
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
