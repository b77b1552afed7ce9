// Wrap-free iteration over l-infinity windows on the torus.
//
// A (2r+1) x (2r+1) window around a site decomposes into at most two
// contiguous x-intervals per row (the window either fits before the seam
// or splits into a tail [x0, n) and a head [0, rest)). Iterating those
// row spans keeps all modulo arithmetic at the row level: the inner loops
// see plain contiguous array segments and auto-vectorize.
//
// The visit order is exactly the legacy stencil order (dy = -r..r, then
// dx = -r..r, coordinates wrapped), which every engine relies on to keep
// AgentSet mutation order — and therefore sampled trajectories — bitwise
// identical to the pre-engine implementations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "grid/point.h"
#include "lattice/bitfield.h"

namespace seg {

// +1 count of the radius-r window around (cx, cy) on a packed field —
// the popcount path: one masked-popcount row count per window row
// (BitField::count_row) instead of per-cell span iteration. (cx, cy)
// must lie in [0, n) of the n x n field; requires 2r+1 <= n.
inline std::int32_t packed_window_count(const BitField& bits, int cx,
                                        int cy, int r) {
  const int n = bits.width();
  assert(bits.height() == n);
  assert(2 * r + 1 <= n);
  assert(cx >= 0 && cx < n && cy >= 0 && cy < n);
  const int side = 2 * r + 1;
  int x0 = cx - r;
  if (x0 < 0) x0 += n;
  int y = cy - r;
  if (y < 0) y += n;
  std::int32_t total = 0;
  for (int row = 0; row < side; ++row) {
    total += bits.count_row(y, x0, side);
    if (++y == n) y = 0;
  }
  return total;
}

// Calls fn(base, len) for each contiguous row segment of the window of
// radius r around (cx, cy); `base` is a row-major index into an n*n field.
// (cx, cy) must already lie in [0, n); requires 2r+1 <= n.
template <typename Fn>
inline void for_each_window_span(int cx, int cy, int r, int n, Fn&& fn) {
  assert(2 * r + 1 <= n);
  assert(cx >= 0 && cx < n && cy >= 0 && cy < n);
  const int side = 2 * r + 1;
  int x0 = cx - r;
  if (x0 < 0) x0 += n;
  int y0 = cy - r;
  if (y0 < 0) y0 += n;
  const int tail = n - x0;  // cells from x0 to the seam
  const bool split = tail < side;
  for (int row = 0; row < side; ++row) {
    int y = y0 + row;
    if (y >= n) y -= n;
    const std::size_t base = static_cast<std::size_t>(y) * n;
    if (!split) {
      fn(base + x0, side);
    } else {
      fn(base + x0, tail);
      fn(base, side - tail);
    }
  }
}

// Calls fn(id) for every site of the window, in stencil order.
template <typename Fn>
inline void for_each_window_cell(int cx, int cy, int r, int n, Fn&& fn) {
  for_each_window_span(cx, cy, r, n, [&](std::size_t base, int len) {
    for (int i = 0; i < len; ++i) {
      fn(static_cast<std::uint32_t>(base + i));
    }
  });
}

// Calls fn(x, y, id) with wrapped coordinates, in stencil order. For
// callers that need the site position (e.g. distance filters) and not
// just the index.
template <typename Fn>
inline void for_each_window_point(int cx, int cy, int r, int n, Fn&& fn) {
  assert(2 * r + 1 <= n);
  const int side = 2 * r + 1;
  int x0 = cx - r;
  if (x0 < 0) x0 += n;
  int y0 = cy - r;
  if (y0 < 0) y0 += n;
  for (int row = 0; row < side; ++row) {
    int y = y0 + row;
    if (y >= n) y -= n;
    const std::size_t base = static_cast<std::size_t>(y) * n;
    int x = x0;
    for (int i = 0; i < side; ++i) {
      fn(x, y, static_cast<std::uint32_t>(base + x));
      if (++x == n) x = 0;
    }
  }
}

// As for_each_window_point, but fn returns false to stop the scan early;
// returns true iff the whole window was visited.
template <typename Fn>
inline bool for_each_window_point_until(int cx, int cy, int r, int n,
                                        Fn&& fn) {
  assert(2 * r + 1 <= n);
  const int side = 2 * r + 1;
  int x0 = cx - r;
  if (x0 < 0) x0 += n;
  int y0 = cy - r;
  if (y0 < 0) y0 += n;
  for (int row = 0; row < side; ++row) {
    int y = y0 + row;
    if (y >= n) y -= n;
    const std::size_t base = static_cast<std::size_t>(y) * n;
    int x = x0;
    for (int i = 0; i < side; ++i) {
      if (!fn(x, y, static_cast<std::uint32_t>(base + x))) return false;
      if (++x == n) x = 0;
    }
  }
  return true;
}

// Fixed-geometry binding of the span iteration: one torus side and window
// radius, id-addressed centers. Every 2-D engine owns one of these.
class WindowGeometry {
 public:
  WindowGeometry(int n, int w) : n_(n), w_(w) {
    assert(n > 0 && w >= 1 && 2 * w + 1 <= n);
  }

  int side() const { return n_; }
  int radius() const { return w_; }
  int window_side() const { return 2 * w_ + 1; }
  int window_size() const { return window_side() * window_side(); }
  std::size_t site_count() const {
    return static_cast<std::size_t>(n_) * n_;
  }

  std::uint32_t id_of(int x, int y) const {
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(torus_wrap(y, n_)) * n_ +
        torus_wrap(x, n_));
  }
  Point point_of(std::uint32_t id) const {
    return Point{static_cast<int>(id % n_), static_cast<int>(id / n_)};
  }

  template <typename Fn>
  void for_each_span(std::uint32_t center, Fn&& fn) const {
    for_each_window_span(static_cast<int>(center % n_),
                         static_cast<int>(center / n_), w_, n_,
                         static_cast<Fn&&>(fn));
  }

  template <typename Fn>
  void for_each_cell(std::uint32_t center, Fn&& fn) const {
    for_each_window_cell(static_cast<int>(center % n_),
                         static_cast<int>(center / n_), w_, n_,
                         static_cast<Fn&&>(fn));
  }

 private:
  int n_;
  int w_;
};

}  // namespace seg
