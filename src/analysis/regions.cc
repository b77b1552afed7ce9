#include "analysis/regions.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "core/model.h"
#include "grid/distance_transform.h"

namespace seg {

MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n) {
  MonoRegionField field;
  field.n = n;
  field.radius = mono_ball_radius(spins, n);
  return field;
}

MonoRegionField mono_region_field(const SchellingModel& model) {
  return mono_region_field(model.spins(), model.side());
}

std::int32_t largest_radius(const std::vector<std::int32_t>& radius) {
  std::int32_t best = 0;
  for (const std::int32_t r : radius) best = std::max(best, r);
  return best;
}

namespace {

// covering_ball_size with the field's largest radius precomputed: only
// centers within rmax of u can cover it, so offsets -lo..hi from u visit
// each candidate center once, at an offset whose magnitude is its torus
// distance: the (2 rmax + 1)^2 window, or the whole torus once that
// window would wrap onto itself. A smaller rmax would miss covers.
std::int64_t covering_ball_size_within(const std::vector<std::int32_t>& radius,
                                       int n, Point u, std::int32_t rmax) {
  const int lo = std::min(rmax, n / 2);
  const int hi = std::min(rmax, (n - 1) / 2);
  std::int64_t best = 1;  // the radius-0 ball {u} always qualifies
  for (int dy = -lo; dy <= hi; ++dy) {
    const std::int32_t* row =
        radius.data() + static_cast<std::size_t>(torus_wrap(u.y + dy, n)) * n;
    const int ady = std::abs(dy);
    for (int dx = -lo; dx <= hi; ++dx) {
      int cx = u.x + dx;
      if (cx < 0) {
        cx += n;
      } else if (cx >= n) {
        cx -= n;
      }
      const std::int32_t r = row[cx];
      if (r > 0 && r >= std::max(ady, std::abs(dx))) {
        best = std::max(best, ball_size(r));
      }
    }
  }
  return best;
}

}  // namespace

std::int64_t covering_ball_size(const std::vector<std::int32_t>& radius,
                                int n, Point u) {
  return covering_ball_size_within(radius, n, u, largest_radius(radius));
}

double mean_covering_ball_size(const std::vector<std::int32_t>& radius,
                               int n, std::size_t samples, Rng& rng) {
  assert(samples > 0);
  const std::int32_t rmax = largest_radius(radius);
  const auto total =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  double sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto id = rng.uniform_below(total);
    const Point u{static_cast<int>(id % n), static_cast<int>(id / n)};
    sum += static_cast<double>(covering_ball_size_within(radius, n, u, rmax));
  }
  return sum / static_cast<double>(samples);
}

std::int64_t mono_region_size_of(const MonoRegionField& field, Point u) {
  return covering_ball_size(field.radius, field.n, u);
}

double mean_mono_region_size(const MonoRegionField& field,
                             std::size_t samples, Rng& rng) {
  return mean_covering_ball_size(field.radius, field.n, samples, rng);
}

std::int64_t largest_mono_region(const MonoRegionField& field) {
  return ball_size(largest_radius(field.radius));
}

}  // namespace seg
