// Monochromatic-region measurement (paper Sec. II-A "Segregation" and the
// quantity M of Theorems 1-2).
//
// The monochromatic region of an agent u is the largest-radius
// l-infinity ball (neighborhood) of single-type agents that contains u;
// M is its size (agent count). We compute, per final configuration:
//   * radius(c) for every center c: iterated 3x3 erosion of the two type
//     masks on the packed spins, O(rmax * n^2 / 64) words for the
//     largest radius rmax, plus one write per center;
//   * M(u) for sampled agents u: max over centers c covering u, scanned
//     over the (2 rmax + 1)^2 window around u, rmax the largest radius;
//   * the grid-wide largest monochromatic ball.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "lattice/bitfield.h"
#include "rng/rng.h"

namespace seg {

class SchellingModel;

struct MonoRegionField {
  int n = 0;
  // Per-center radius of the largest monochromatic ball centered there.
  std::vector<std::int32_t> radius;
};

// Per-center radii of an n x n packed spin field (width == height).
MonoRegionField mono_region_field(const BitField& spins);

// Packs a row-major +1/-1 field once and runs the packed kernel.
MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n);

// Size (agent count) of a ball of radius r.
inline std::int64_t ball_size(std::int32_t r) {
  const std::int64_t side = 2 * static_cast<std::int64_t>(r) + 1;
  return side * side;
}

// Largest entry of a per-center radius field (0 when empty).
std::int32_t largest_radius(const std::vector<std::int32_t>& radius);

// The covering-ball size shared by M(u) and M'(u): the largest
// ball_size(radius[c]) over centers c with radius[c] >= 1 and
// torus_linf(c, u) <= radius[c]; 1 when no such ball covers u.
std::int64_t covering_ball_size(const std::vector<std::int32_t>& radius,
                                int n, Point u);

// Mean covering-ball size over `samples` agents drawn uniformly from rng,
// in draw order (samples >= 1).
double mean_covering_ball_size(const std::vector<std::int32_t>& radius,
                               int n, std::size_t samples, Rng& rng);

// M(u): size of the largest monochromatic ball containing the agent at u.
std::int64_t mono_region_size_of(const MonoRegionField& field, Point u);

// Mean of M(u) over `samples` agents drawn uniformly (the estimator for
// E[M] of an arbitrary agent). Deterministic given rng.
double mean_mono_region_size(const MonoRegionField& field,
                             std::size_t samples, Rng& rng);

// Largest monochromatic ball size anywhere on the grid.
std::int64_t largest_mono_region(const MonoRegionField& field);

// The field of a model's current spins, read from its packed bits.
MonoRegionField mono_region_field(const SchellingModel& model);

}  // namespace seg
