// Almost-monochromatic region measurement (paper Sec. II-A and the
// quantity M' of Theorem 2): the largest-radius ball containing u in which
// the ratio (minority count / majority count) is at most e^{-eps N},
// where N is the neighborhood size of the dynamics.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "lattice/bitfield.h"
#include "rng/rng.h"

namespace seg {

class SchellingModel;

struct AlmostMonoField {
  int n = 0;
  double ratio_threshold = 0.0;
  // Per-center radius of the largest almost-monochromatic ball centered
  // there (-1 if even the radius-0 ball fails, which cannot happen since a
  // single agent has minority ratio 0).
  std::vector<std::int32_t> radius;
};

// Computes the per-center almost-monochromatic radii of an n x n packed
// spin field (width == height). max_radius bounds the search; it
// defaults to the largest proper ball, (n-1)/2, when <= 0. Cost: O(n^2)
// per radius, all centers at once, up to the first radius at which no
// center's minority is within threshold * ball_size(max_radius); when
// that product is below 1 only monochromatic balls pass, and the field is
// the (capped) mono radius of regions.h.
AlmostMonoField almost_mono_field(const BitField& spins,
                                  double ratio_threshold, int max_radius = 0);

// Packs a row-major +1/-1 field once and runs the packed kernel.
AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius = 0);

// Paper's threshold e^{-eps N} for the given dynamics neighborhood size.
double almost_mono_threshold(double eps, int neighborhood_size);

// M'(u): size of the largest almost-monochromatic ball containing u.
std::int64_t almost_region_size_of(const AlmostMonoField& field, Point u);

// Mean of M'(u) over uniformly sampled agents (estimator for E[M']).
double mean_almost_region_size(const AlmostMonoField& field,
                               std::size_t samples, Rng& rng);

std::int64_t largest_almost_region(const AlmostMonoField& field);

// Convenience overload binding threshold = e^{-eps N(model)}.
AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius = 0);

}  // namespace seg
