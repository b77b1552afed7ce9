// An O(1) insert/erase/sample index set over agent ids, used for the
// unhappy / flippable / vacant sets of every lattice model. Sampling must
// be uniform for the dynamics to realize the Poisson-clock law.
//
// The iteration (and therefore sampling) order is a deterministic function
// of the insert/erase history: erase moves the last element into the hole.
// The engines preserve the legacy per-window mutation order exactly so
// that trajectories stay bitwise reproducible across refactors.
//
// Band split (sharded engines only): items [0, band_size()) form the
// boundary band and the rest the interior, under the one position table.
// insert()/erase() address the interior part and insert_band() /
// erase_band() the band; a set that never sees a band call is the plain
// set, with the same work per operation. The parallel sweep engine
// samples each part on its own clock (core/parallel_dynamics.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "rng/rng.h"

namespace seg {

// Whole, aligned cache lines: a buffer from it shares no line with any
// other allocation.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kLine = 64;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kLine});
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

// The object and its item buffer sit on cache lines of their own: a
// sharded engine keeps its per-shard slices side by side (lattice/engine.h)
// and concurrent phase-A workers write their own slice's fields and items
// on every flip. With plain allocation the small item buffers of
// different shards share heap lines and the objects straddle lines, so
// workers falsely share lines as the heap happens to fall, and a sweep
// costs up to twice as much from one run to the next. The position table
// is large and written at scattered ids, so it stays plainly allocated
// (aligning it too raised the peak RSS of a 10^6-site sharded run by
// about 7 MB).
class alignas(64) AgentSet {
 public:
  using Ids = std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>>;

  explicit AgentSet(std::size_t capacity) : pos_(capacity, kAbsent) {}

  // Windowed set over ids in [base, base + capacity): the position table
  // only spans the window, so a sharded engine whose shards own
  // contiguous id ranges (row stripes) pays O(sites) total across all
  // shard slices instead of O(sites * shards). Ids outside the window
  // must never be inserted/erased/probed.
  AgentSet(std::size_t capacity, std::uint32_t base)
      : base_(base), pos_(capacity, kAbsent) {}

  // Safe for any id: out-of-window ids are simply not members.
  bool contains(std::uint32_t id) const {
    const std::uint32_t offset = id - base_;
    return offset < pos_.size() && pos_[offset] != kAbsent;
  }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Idempotent: inserting a present id / erasing an absent id is a no-op.
  void insert(std::uint32_t id);
  void erase(std::uint32_t id);

  std::uint32_t sample(Rng& rng) const;
  std::uint32_t at(std::size_t i) const { return items_[i]; }
  const Ids& items() const { return items_; }

  // Band-split interface (see the header comment). Each part keeps the
  // O(1) swap-erase bookkeeping; crossing the split costs one extra move.
  void insert_band(std::uint32_t id);
  void erase_band(std::uint32_t id);
  std::size_t band_size() const { return band_; }
  std::size_t interior_size() const { return items_.size() - band_; }
  bool in_band(std::uint32_t id) const {
    return contains(id) && pos_[id - base_] < band_;
  }
  // Uniform over the interior part (the whole set when no band exists).
  std::uint32_t sample_interior(Rng& rng) const {
    return items_[band_ + rng.uniform_below(items_.size() - band_)];
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  // Moves the item at slot `from` to slot `to` (overwriting it).
  void move_item(std::size_t from, std::size_t to) {
    items_[to] = items_[from];
    pos_[items_[to] - base_] = static_cast<std::uint32_t>(to);
  }

  std::uint32_t base_ = 0;
  std::size_t band_ = 0;  // items_[0, band_) is the boundary band
  Ids items_;  // raw (un-offset) ids
  std::vector<std::uint32_t> pos_;  // indexed by id - base_
};

}  // namespace seg
