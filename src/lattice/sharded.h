// Domain decomposition of the torus for sharded parallel dynamics.
//
// A ShardLayout partitions the n x n torus into `shards` axis-aligned
// bands — row stripes, or a rows x cols checkerboard of blocks — and
// classifies every site as *interior* or *boundary* with respect to the
// interaction margin w (the model's neighborhood radius). A site is
// interior iff its whole l-infinity window of radius w lies inside its own
// shard; equivalently, boundary sites are those within w of a band edge.
// A dimension that is not cut (a single band spanning the whole ring) has
// no boundary in that dimension, so the 1-shard layout has no boundary at
// all and sharded dynamics degenerate exactly to the serial process.
//
// The isolation guarantee the parallel sweep engine builds on: a flip at
// an interior site of shard s reads and writes only sites of shard s
// (its window is contained in s by definition), and conversely no other
// shard's interior flip can touch any site of s. Boundary flips are the
// only cross-shard interactions; the sweep engine runs them on one serial
// band chain after the shards' concurrent phase.
//
// Stripes vs checkerboard: stripes own whole rows, so window spans never
// wrap mid-shard and the boundary fraction is ~2w/(n/k); a checkerboard
// cuts both axes, doubling the boundary fraction for the same shard count
// but keeping shards square-ish — useful when k exceeds n/(2w+1) rows or
// when cache locality of row-major stripes stops mattering (huge w).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace seg {

enum class ShardMode { kStripes, kCheckerboard };

class ShardLayout {
 public:
  // Trivial layout: one shard covering everything, no boundary.
  ShardLayout() = default;

  // `shards` row stripes of near-equal height over an n x n torus with
  // interaction margin w. shards is clamped to [1, n].
  static ShardLayout stripes(int n, int w, int shards);

  // rows x cols blocks. rows clamped to [1, n], cols to [1, n].
  static ShardLayout checkerboard(int n, int w, int rows, int cols);

  // Largest stripe count for which every stripe still has interior rows
  // (height >= 2w + 1). More stripes remain *correct* (an all-boundary
  // stripe leaves every flip to the serial band chain) but stop scaling.
  static int max_stripes(int n, int w) {
    const int k = n / (2 * w + 1);
    return k < 1 ? 1 : k;
  }

  int shard_count() const { return shard_count_; }
  bool trivial() const { return shard_count_ == 1; }
  ShardMode mode() const { return mode_; }
  int side() const { return n_; }    // 0 for the trivial layout
  int margin() const { return w_; }  // interaction radius the layout is for

  // Shard owning site id (row-major id over the n*n torus).
  int shard_of(std::uint32_t id) const {
    if (trivial()) return 0;
    return row_shard_[id / static_cast<std::uint32_t>(n_)] +
           col_shard_[id % static_cast<std::uint32_t>(n_)];
  }

  // True iff the window of radius `margin()` around id leaves id's shard.
  bool boundary(std::uint32_t id) const {
    if (trivial()) return false;
    return (row_boundary_[id / static_cast<std::uint32_t>(n_)] |
            col_boundary_[id % static_cast<std::uint32_t>(n_)]) != 0;
  }

  // Total number of boundary sites (0 for the trivial layout).
  std::size_t boundary_site_count() const;

  // {first id, id count} of the smallest row-aligned id range containing
  // every site of `shard` — exact for stripes (whole rows), the row-band
  // bounding range for checkerboard blocks. Engines size their per-shard
  // set slices to this window, keeping sharded set memory O(sites) for
  // stripes instead of O(sites * shards).
  std::pair<std::uint32_t, std::uint32_t> id_window(int shard) const;

  // True iff this layout partitions an n x n torus with margin w — the
  // compatibility check engines run at construction.
  bool compatible(int n, int w) const {
    return trivial() || (n_ == n && w_ == w);
  }

  // True iff some `block`-aligned column group spans two column bands —
  // i.e. a packed spin word of `block` bits would hold sites of two
  // shards, forcing the packed engine onto atomic bit flips. Stripe
  // layouts never split columns; checkerboards do whenever a column cut
  // lands off `block` alignment.
  bool splits_aligned_columns(int block) const;

 private:
  static std::vector<int> band_starts(int n, int bands);
  static void classify_axis(int n, int w, int bands,
                            std::vector<std::uint32_t>* band_of,
                            std::vector<std::uint8_t>* boundary);

  int n_ = 0;
  int w_ = 0;
  int shard_count_ = 1;
  int row_bands_ = 1;
  int col_bands_ = 1;
  ShardMode mode_ = ShardMode::kStripes;
  // shard_of(id) = row_shard_[y] + col_shard_[x]; row_shard_ is
  // premultiplied by the column band count so the lookup is one add.
  std::vector<std::uint32_t> row_shard_;
  std::vector<std::uint32_t> col_shard_;
  std::vector<std::uint8_t> row_boundary_;
  std::vector<std::uint8_t> col_boundary_;
};

}  // namespace seg
