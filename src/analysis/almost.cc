#include "analysis/almost.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/model.h"
#include "analysis/regions.h"
#include "grid/prefix_sum.h"

namespace seg {

double almost_mono_threshold(double eps, int neighborhood_size) {
  assert(eps > 0.0 && neighborhood_size > 0);
  return std::exp(-eps * static_cast<double>(neighborhood_size));
}

AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius) {
  assert(spins.size() == static_cast<std::size_t>(n) * n);
  if (max_radius <= 0) max_radius = (n - 1) / 2;
  max_radius = std::min(max_radius, (n - 1) / 2);

  AlmostMonoField field;
  field.n = n;
  field.ratio_threshold = ratio_threshold;
  field.radius.assign(spins.size(), 0);

  std::vector<std::int32_t> plus_indicator(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) {
    plus_indicator[i] = spins[i] > 0 ? 1 : 0;
  }
  const PrefixSum2D prefix(plus_indicator, n);

  // Growing r never shrinks the minority count (the balls are nested),
  // and no majority count exceeds ball_size(max_radius). Once the
  // minority exceeds threshold * ball_size(max_radius), no radius from
  // here on can pass; IEEE multiplication is monotone, so this cutoff is
  // exact in double arithmetic too.
  const double cutoff =
      ratio_threshold * static_cast<double>(ball_size(max_radius));
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      // Largest r whose ball satisfies the ratio test. The property is not
      // monotone in r, so scan the radii up to the cutoff and keep the
      // largest passing one.
      std::int32_t best = 0;  // radius-0 ball always passes (ratio 0)
      for (int r = 1; r <= max_radius; ++r) {
        const std::int64_t size = ball_size(r);
        const std::int64_t plus = prefix.box_sum(cx, cy, r);
        const std::int64_t minority = std::min(plus, size - plus);
        if (static_cast<double>(minority) > cutoff) break;
        const std::int64_t majority = size - minority;
        if (static_cast<double>(minority) <=
            ratio_threshold * static_cast<double>(majority)) {
          best = r;
        }
      }
      field.radius[static_cast<std::size_t>(cy) * n + cx] = best;
    }
  }
  return field;
}

AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius) {
  return almost_mono_field(
      model.spins(), model.side(),
      almost_mono_threshold(eps, model.neighborhood_size()), max_radius);
}

std::int64_t almost_region_size_of(const AlmostMonoField& field, Point u) {
  return covering_ball_size(field.radius, field.n, u);
}

double mean_almost_region_size(const AlmostMonoField& field,
                               std::size_t samples, Rng& rng) {
  return mean_covering_ball_size(field.radius, field.n, samples, rng);
}

std::int64_t largest_almost_region(const AlmostMonoField& field) {
  return ball_size(largest_radius(field.radius));
}

}  // namespace seg
