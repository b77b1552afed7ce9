#include "lattice/sharded.h"

#include <cassert>

#include "obs/telemetry.h"

namespace seg {

namespace {

// Layout telemetry: shard count and boundary-site volume, the two
// numbers that predict the serial share of a sharded run (every boundary
// flip runs on the phase-B band chain). Boundary sites = rows-boundary
// union cols-boundary.
void publish_layout_gauges(const std::vector<std::uint8_t>& row_boundary,
                           const std::vector<std::uint8_t>& col_boundary,
                           int n, int shards) {
  std::int64_t rows = 0, cols = 0;
  for (const std::uint8_t b : row_boundary) rows += b;
  for (const std::uint8_t b : col_boundary) cols += b;
  const std::int64_t sites = rows * n + cols * n - rows * cols;
  SEG_GAUGE_SET("sharded.shards", shards);
  SEG_GAUGE_SET("sharded.boundary_sites", sites);
}

}  // namespace

std::vector<int> ShardLayout::band_starts(int n, int bands) {
  // Band b covers [b*n/bands, (b+1)*n/bands): heights differ by at most 1.
  std::vector<int> starts(static_cast<std::size_t>(bands) + 1);
  for (int b = 0; b <= bands; ++b) {
    starts[b] = static_cast<int>(static_cast<std::int64_t>(b) * n / bands);
  }
  return starts;
}

void ShardLayout::classify_axis(int n, int w, int bands,
                                std::vector<std::uint32_t>* band_of,
                                std::vector<std::uint8_t>* boundary) {
  band_of->assign(static_cast<std::size_t>(n), 0);
  boundary->assign(static_cast<std::size_t>(n), 0);
  if (bands == 1) return;  // whole ring: nothing to cross, no boundary
  const std::vector<int> starts = band_starts(n, bands);
  for (int b = 0; b < bands; ++b) {
    const int lo = starts[b];
    const int hi = starts[b + 1];  // exclusive
    for (int y = lo; y < hi; ++y) {
      (*band_of)[y] = static_cast<std::uint32_t>(b);
      // Within w of either cut: the radius-w window leaves the band.
      (*boundary)[y] = (y - lo < w) || (hi - 1 - y < w);
    }
  }
}

ShardLayout ShardLayout::stripes(int n, int w, int shards) {
  assert(n > 0 && w >= 1);
  if (shards < 1) shards = 1;
  if (shards > n) shards = n;
  ShardLayout layout;
  layout.n_ = n;
  layout.w_ = w;
  layout.shard_count_ = shards;
  layout.row_bands_ = shards;
  layout.col_bands_ = 1;
  layout.mode_ = ShardMode::kStripes;
  classify_axis(n, w, shards, &layout.row_shard_, &layout.row_boundary_);
  layout.col_shard_.assign(static_cast<std::size_t>(n), 0);
  layout.col_boundary_.assign(static_cast<std::size_t>(n), 0);
  publish_layout_gauges(layout.row_boundary_, layout.col_boundary_, n,
                        shards);
  return layout;
}

ShardLayout ShardLayout::checkerboard(int n, int w, int rows, int cols) {
  assert(n > 0 && w >= 1);
  if (rows < 1) rows = 1;
  if (rows > n) rows = n;
  if (cols < 1) cols = 1;
  if (cols > n) cols = n;
  ShardLayout layout;
  layout.n_ = n;
  layout.w_ = w;
  layout.shard_count_ = rows * cols;
  layout.row_bands_ = rows;
  layout.col_bands_ = cols;
  layout.mode_ = ShardMode::kCheckerboard;
  classify_axis(n, w, rows, &layout.row_shard_, &layout.row_boundary_);
  classify_axis(n, w, cols, &layout.col_shard_, &layout.col_boundary_);
  // Premultiply the row band so shard_of is row_shard_[y] + col_shard_[x].
  for (auto& band : layout.row_shard_) {
    band = static_cast<std::uint32_t>(band) * static_cast<std::uint32_t>(cols);
  }
  publish_layout_gauges(layout.row_boundary_, layout.col_boundary_, n,
                        rows * cols);
  return layout;
}

std::pair<std::uint32_t, std::uint32_t> ShardLayout::id_window(
    int shard) const {
  if (trivial()) return {0, 0};  // caller sizes to the full lattice
  const std::vector<int> starts = band_starts(n_, row_bands_);
  const int row_band = shard / col_bands_;
  const auto base = static_cast<std::uint32_t>(
      static_cast<std::size_t>(starts[row_band]) * n_);
  const auto end = static_cast<std::uint32_t>(
      static_cast<std::size_t>(starts[row_band + 1]) * n_);
  return {base, end - base};
}

bool ShardLayout::splits_aligned_columns(int block) const {
  if (trivial() || col_bands_ == 1) return false;
  for (int x = 1; x < n_; ++x) {
    if (x % block != 0 && col_shard_[x] != col_shard_[x - 1]) return true;
  }
  return false;
}

std::size_t ShardLayout::boundary_site_count() const {
  if (trivial()) return 0;
  std::size_t boundary_rows = 0, boundary_cols = 0;
  for (const std::uint8_t b : row_boundary_) boundary_rows += b;
  for (const std::uint8_t b : col_boundary_) boundary_cols += b;
  const auto n = static_cast<std::size_t>(n_);
  // Inclusion-exclusion over the row-band and column-band cuts.
  return boundary_rows * n + boundary_cols * n -
         boundary_rows * boundary_cols;
}

}  // namespace seg
