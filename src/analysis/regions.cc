#include "analysis/regions.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "core/model.h"

namespace seg {

namespace {

// dst = src eroded by the 3x3 square on the torus, one row at a time:
// dst(y, x) is set iff src is set at (y + dy, x + dx) for every |dx|,
// |dy| <= 1 (indices mod n). Rows hold n bits in `words` words; padding
// bits are zero in src and stay zero in dst. `row` is scratch for the
// horizontal pass of every row (n * words words).
void erode_torus(const std::vector<std::uint64_t>& src,
                 std::vector<std::uint64_t>& row,
                 std::vector<std::uint64_t>& dst, int n, int words) {
  const int last = words - 1;
  const int top = (n - 1) & 63;  // bit of site n - 1 in word `last`
  for (int y = 0; y < n; ++y) {
    const std::uint64_t* in = src.data() + static_cast<std::size_t>(y) * words;
    std::uint64_t* out = row.data() + static_cast<std::size_t>(y) * words;
    const std::uint64_t first_bit = in[0] & 1u;
    const std::uint64_t last_bit = (in[last] >> top) & 1u;
    for (int i = 0; i < words; ++i) {
      // Bit x of `left` is site x - 1, of `right` site x + 1, wrapping
      // at the seam; `in` clears whatever a shift moves into padding.
      const std::uint64_t left =
          (in[i] << 1) | (i > 0 ? in[i - 1] >> 63 : last_bit);
      std::uint64_t right = (in[i] >> 1) | (i < last ? in[i + 1] << 63 : 0u);
      if (i == last) right |= first_bit << top;
      out[i] = in[i] & left & right;
    }
  }
  for (int y = 0; y < n; ++y) {
    const std::uint64_t* up =
        row.data() + static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * words;
    const std::uint64_t* mid = row.data() + static_cast<std::size_t>(y) * words;
    const std::uint64_t* down =
        row.data() + static_cast<std::size_t>(y == n - 1 ? 0 : y + 1) * words;
    std::uint64_t* out = dst.data() + static_cast<std::size_t>(y) * words;
    for (int i = 0; i < words; ++i) out[i] = up[i] & mid[i] & down[i];
  }
}

}  // namespace

// A site survives erosion step k of its own type's mask iff every site
// within torus-chessboard distance k shares its type, so its radius is
// the last step it survives (its distance to the nearest site of the
// other type, minus 1), capped at (n - 1) / 2, the largest proper ball.
MonoRegionField mono_region_field(const BitField& spins) {
  const int n = spins.width();
  assert(spins.height() == n);
  const int words = spins.words_per_row();
  const std::size_t total_words = static_cast<std::size_t>(n) * words;
  const std::int32_t cap = (n - 1) / 2;

  MonoRegionField field;
  field.n = n;
  field.radius.assign(static_cast<std::size_t>(n) * n, cap);

  // plus/minus: the two type masks eroded step - 1 times; plus_next/
  // minus_next once more. Padding bits are zero in every mask.
  std::vector<std::uint64_t> plus(total_words), minus(total_words);
  const std::uint64_t tail_mask = ~0ull >> (63 - ((n - 1) & 63));
  for (int y = 0; y < n; ++y) {
    const std::uint64_t* src = spins.row_words(y);
    for (int i = 0; i < words; ++i) {
      const std::size_t k = static_cast<std::size_t>(y) * words + i;
      plus[k] = src[i];
      minus[k] = ~src[i] & (i == words - 1 ? tail_mask : ~0ull);
    }
  }
  std::vector<std::uint64_t> plus_next(total_words), minus_next(total_words),
      row(total_words);
  for (std::int32_t step = 1; step <= cap; ++step) {
    erode_torus(plus, row, plus_next, n, words);
    erode_torus(minus, row, minus_next, n, words);
    // Sites alive before this step and gone after it have radius
    // step - 1; survivors of every step keep the cap.
    std::uint64_t alive = 0;
    for (std::size_t k = 0; k < total_words; ++k) {
      const std::uint64_t next = plus_next[k] | minus_next[k];
      alive |= next;
      std::uint64_t died = (plus[k] | minus[k]) & ~next;
      if (died == 0) continue;
      std::int32_t* out = field.radius.data() + (k / words) * n +
                          (k % words) * 64;
      for (; died != 0; died &= died - 1) {
        out[std::countr_zero(died)] = step - 1;
      }
    }
    if (alive == 0) break;
    plus.swap(plus_next);
    minus.swap(minus_next);
  }
  return field;
}

MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n) {
  return mono_region_field(BitField(spins, n, n));
}

MonoRegionField mono_region_field(const SchellingModel& model) {
  return mono_region_field(model.packed_spins());
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
