#include "analysis/almost.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/model.h"
#include "analysis/regions.h"

namespace seg {

double almost_mono_threshold(double eps, int neighborhood_size) {
  assert(eps > 0.0 && neighborhood_size > 0);
  return std::exp(-eps * static_cast<double>(neighborhood_size));
}

namespace {

// The number of minority counts m >= 0 that pass the ratio test
// m <= threshold * (size - m) in double arithmetic. The left side grows
// with m and, for a threshold >= 0, the right side never does (IEEE
// multiplication is monotone), so the passing counts are exactly 0 up to
// the result minus 1; a negative or NaN threshold passes none.
std::uint32_t passing_minorities(double threshold, std::uint32_t size) {
  const auto passes = [&](std::uint32_t m) {
    return static_cast<double>(m) <=
           threshold * static_cast<double>(size - m);
  };
  std::uint32_t lo = 0, hi = size + 1;  // passes below lo, fails from hi
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

AlmostMonoField almost_mono_field(const BitField& spins,
                                  double ratio_threshold, int max_radius) {
  const int n = spins.width();
  assert(spins.height() == n);
  if (max_radius <= 0) max_radius = (n - 1) / 2;
  max_radius = std::min(max_radius, (n - 1) / 2);

  AlmostMonoField field;
  field.n = n;
  field.ratio_threshold = ratio_threshold;

  // Growing r never shrinks the minority count (the balls are nested),
  // and no majority count exceeds ball_size(max_radius). Once the
  // minority exceeds threshold * ball_size(max_radius), no radius from
  // here on can pass; IEEE multiplication is monotone, so this cutoff is
  // exact in double arithmetic too.
  const double cutoff =
      ratio_threshold * static_cast<double>(ball_size(max_radius));
  if (ratio_threshold >= 0.0 && cutoff < 1.0) {
    // Only minority 0 passes: the monochromatic radius, capped.
    field.radius = mono_region_field(spins).radius;
    for (std::int32_t& r : field.radius) r = std::min(r, max_radius);
    return field;
  }

  // Box counts grow one radius at a time, every center at once:
  //   box_r(y, x) = box_{r-1}(y, x) + col_{r-1}(y, x +- r)
  //               + row_r(y +- r, x),
  // where row_r(y, x) counts +1 spins in columns x - r .. x + r of row y
  // and col_r(y, x) in rows y - r .. y + r of column x; each gains two
  // sites per step. 2 r + 1 <= n, so the added strips never overlap the
  // box or each other. `plus` and `col` rows are triple width (copy i of
  // site x at i * n + x) so x +- r needs no wrap and the loops vectorize.
  const auto stride = static_cast<std::size_t>(n);
  const std::size_t sites = stride * stride;
  const std::size_t wide = 3 * stride;
  std::vector<std::uint8_t> plus(wide * n);
  std::vector<std::uint32_t> row(sites), box(sites);
  for (int y = 0; y < n; ++y) {
    const std::uint64_t* bits = spins.row_words(y);
    std::uint8_t* p = plus.data() + y * wide;
    for (int x = 0; x < n; ++x) {
      p[x] = static_cast<std::uint8_t>((bits[x >> 6] >> (x & 63)) & 1u);
      row[y * stride + x] = p[x];
    }
    std::copy(p, p + n, p + n);
    std::copy(p, p + n, p + 2 * n);
  }
  box = row;
  std::vector<std::uint32_t> col(plus.begin(), plus.end());
  field.radius.assign(sites, 0);  // radius 0 always passes (ratio 0)

  for (int r = 1; r <= max_radius; ++r) {
    for (int y = 0; y < n; ++y) {
      const std::uint8_t* p = plus.data() + y * wide + n;
      std::uint32_t* h = row.data() + y * stride;
      for (int x = 0; x < n; ++x) h[x] += p[x - r] + p[x + r];
    }
    const auto size = static_cast<std::uint32_t>(ball_size(r));
    const std::uint32_t bound = passing_minorities(ratio_threshold, size);
    std::uint32_t least = size;
    for (int y = 0; y < n; ++y) {
      const std::uint32_t* v = col.data() + y * wide + n;
      const std::uint32_t* up = row.data() + ((y - r + n) % n) * stride;
      const std::uint32_t* down = row.data() + ((y + r) % n) * stride;
      std::uint32_t* b = box.data() + y * stride;
      std::int32_t* radius = field.radius.data() + y * stride;
      for (int x = 0; x < n; ++x) {
        const std::uint32_t count =
            b[x] + v[x - r] + v[x + r] + up[x] + down[x];
        b[x] = count;
        const std::uint32_t minority = std::min(count, size - count);
        radius[x] = minority < bound ? r : radius[x];
        least = std::min(least, minority);
      }
    }
    if (static_cast<double>(least) > cutoff) break;
    for (int y = 0; y < n; ++y) {
      const std::uint8_t* above = plus.data() + ((y - r + n) % n) * wide;
      const std::uint8_t* below = plus.data() + ((y + r) % n) * wide;
      std::uint32_t* v = col.data() + y * wide;
      for (std::size_t i = 0; i < wide; ++i) v[i] += above[i] + below[i];
    }
  }
  return field;
}

AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius) {
  return almost_mono_field(BitField(spins, n, n), ratio_threshold,
                           max_radius);
}

AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius) {
  return almost_mono_field(
      model.packed_spins(),
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
