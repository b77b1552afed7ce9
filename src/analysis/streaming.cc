#include "analysis/streaming.h"

#include <algorithm>
#include <cassert>

#include "grid/point.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace seg {

namespace {

// The four lattice directions of pair_correlation(): two axes, two
// diagonals. Kept bit-identical to analysis/correlation.cc.
constexpr int kCorrDx[4] = {1, 0, 1, 1};
constexpr int kCorrDy[4] = {0, 1, 1, -1};

}  // namespace

StreamingObservables::StreamingObservables(std::vector<std::int8_t> field,
                                           int n, StreamingConfig config)
    : n_(n),
      config_(config),
      field_(std::move(field)),
      // No-log mode: the streaming engine only resets (epoch rebuilds),
      // never rolls back, and gets path-halving finds in exchange.
      dsu_(0, /*logging=*/false),
      node_of_(field_.size(), 0),
      size_count_(field_.size() + 1, 0),
      visit_(field_.size(), 0) {
  assert(n_ >= 2);
  assert(field_.size() == static_cast<std::size_t>(n_) * n_);
  assert(config_.max_r >= 0 && config_.max_r < n_ / 2);

  for (const std::int8_t v : field_) {
    ++value_count_[static_cast<std::uint8_t>(v)];
    spin_sum_ += v;
  }

  // Interface via the batch right+down scan, so n == 2 double counting
  // matches cluster_stats() exactly.
  for (int y = 0; y < n_; ++y) {
    for (int x = 0; x < n_; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * n_ + x;
      const std::size_t right =
          static_cast<std::size_t>(y) * n_ + torus_wrap(x + 1, n_);
      const std::size_t down =
          static_cast<std::size_t>(torus_wrap(y + 1, n_)) * n_ + x;
      interface_ += field_[i] != field_[right];
      interface_ += field_[i] != field_[down];
    }
  }

  if (config_.max_r > 0) {
    corr_acc_.assign(static_cast<std::size_t>(config_.max_r) + 1, 0);
    for (int r = 0; r <= config_.max_r; ++r) {
      std::int64_t acc = 0;
      for (int y = 0; y < n_; ++y) {
        for (int x = 0; x < n_; ++x) {
          const std::int64_t s0 =
              field_[static_cast<std::size_t>(y) * n_ + x];
          for (int d = 0; d < 4; ++d) {
            const int nx = torus_wrap(x + kCorrDx[d] * r, n_);
            const int ny = torus_wrap(y + kCorrDy[d] * r, n_);
            acc += s0 * field_[static_cast<std::size_t>(ny) * n_ + nx];
          }
        }
      }
      corr_acc_[r] = acc;
    }
  }

  if (config_.autocorr_window > 0) {
    ring_.assign(config_.autocorr_window, 0);
    first_.assign(config_.autocorr_window, 0);
    lag_prod_.assign(config_.autocorr_window, 0);
  }

  full_rebuild();
  rebuilds_ = 0;  // the constructor's build is not a fallback
}

void StreamingObservables::hist_add(std::int64_t size) {
  assert(size >= 1 && size <= static_cast<std::int64_t>(field_.size()));
  ++size_count_[static_cast<std::size_t>(size)];
  if (size > largest_) largest_ = size;
}

void StreamingObservables::hist_remove(std::int64_t size) {
  assert(size >= 1 && size <= static_cast<std::int64_t>(field_.size()));
  const std::int32_t left = --size_count_[static_cast<std::size_t>(size)];
  assert(left >= 0);
  (void)left;
  if (size == largest_) {
    while (largest_ > 0 && size_count_[static_cast<std::size_t>(
                               largest_)] == 0) {
      --largest_;
    }
  }
}

void StreamingObservables::full_rebuild() {
  // Compaction storms show up on the trace timeline and in the
  // "streaming.compactions" counter; each rebuild is O(sites).
  SEG_PHASE("dsu_compaction");
  SEG_COUNT("streaming.compactions", 1);
  ++rebuilds_;
  const std::size_t sites = field_.size();
  dsu_.reset(sites);
  for (std::uint32_t i = 0; i < sites; ++i) node_of_[i] = i;
  std::fill(size_count_.begin(), size_count_.end(), 0);
  largest_ = 0;
  cluster_count_ = sites;
  for (int y = 0; y < n_; ++y) {
    for (int x = 0; x < n_; ++x) {
      const auto i = static_cast<std::uint32_t>(
          static_cast<std::size_t>(y) * n_ + x);
      const auto right = static_cast<std::uint32_t>(
          static_cast<std::size_t>(y) * n_ + torus_wrap(x + 1, n_));
      const auto down = static_cast<std::uint32_t>(
          static_cast<std::size_t>(torus_wrap(y + 1, n_)) * n_ + x);
      if (field_[i] == field_[right] && dsu_.unite(i, right)) {
        --cluster_count_;
      }
      if (field_[i] == field_[down] && dsu_.unite(i, down)) {
        --cluster_count_;
      }
    }
  }
  for (std::uint32_t i = 0; i < sites; ++i) {
    if (dsu_.find(i) == i) hist_add(dsu_.size_of(i));
  }
}

void StreamingObservables::apply_set(std::uint32_t id, std::int8_t value) {
  assert(id < field_.size());
  const std::int8_t old = field_[id];
  if (old == value) return;

  // Arena compaction: one epoch rebuild once the node arena outgrows 2x
  // the site count, which bounds memory at O(sites) and amortizes the
  // rebuild over at least site_count events.
  if (dsu_.node_count() >= 2 * field_.size() + 64) full_rebuild();

  --value_count_[static_cast<std::uint8_t>(old)];
  ++value_count_[static_cast<std::uint8_t>(value)];
  spin_sum_ += value - old;

  std::uint32_t adj[4];
  neighbors4(id, adj);
  for (int dir = 0; dir < 4; ++dir) {
    const std::int8_t nb = field_[adj[dir]];
    interface_ += static_cast<int>(value != nb) - static_cast<int>(old != nb);
  }

  if (config_.max_r > 0) {
    const std::int64_t dv = static_cast<std::int64_t>(value) - old;
    corr_acc_[0] += 4 * (static_cast<std::int64_t>(value) * value -
                         static_cast<std::int64_t>(old) * old);
    const int x = static_cast<int>(id % static_cast<std::uint32_t>(n_));
    const int y = static_cast<int>(id / static_cast<std::uint32_t>(n_));
    for (int d = 0; d < 4; ++d) {
      for (int r = 1; r <= config_.max_r; ++r) {
        const std::size_t fwd =
            static_cast<std::size_t>(torus_wrap(y + kCorrDy[d] * r, n_)) *
                n_ +
            torus_wrap(x + kCorrDx[d] * r, n_);
        const std::size_t bwd =
            static_cast<std::size_t>(torus_wrap(y - kCorrDy[d] * r, n_)) *
                n_ +
            torus_wrap(x - kCorrDx[d] * r, n_);
        corr_acc_[r] +=
            dv * (static_cast<std::int64_t>(field_[fwd]) + field_[bwd]);
      }
    }
  }

  field_[id] = value;
  cluster_remove(id, old);
  cluster_insert(id);
}

bool StreamingObservables::ring_connected(std::uint32_t id,
                                          std::int8_t old_value) const {
  // The 8-ring around id in cyclic order; consecutive positions are
  // always 4-adjacent, and none of them is id itself (true for any
  // n >= 2), so one contiguous same-value arc covering every same-value
  // cardinal neighbor proves they stay connected without id.
  const auto un = static_cast<std::uint32_t>(n_);
  const std::uint32_t x = id % un;
  const std::uint32_t y = id / un;
  const std::uint32_t xr = x + 1 == un ? 0 : x + 1;
  const std::uint32_t xl = x == 0 ? un - 1 : x - 1;
  const std::uint32_t yd = y + 1 == un ? 0 : y + 1;
  const std::uint32_t yu = y == 0 ? un - 1 : y - 1;
  const std::size_t row = static_cast<std::size_t>(y) * un;
  const std::size_t row_d = static_cast<std::size_t>(yd) * un;
  const std::size_t row_u = static_cast<std::size_t>(yu) * un;
  const std::size_t ring[8] = {row + xr,   row_d + xr, row_d + x,
                               row_d + xl, row + xl,   row_u + xl,
                               row_u + x,  row_u + xr};
  bool occ[8];
  int gap = -1;
  for (int p = 0; p < 8; ++p) {
    occ[p] = field_[ring[p]] == old_value;
    if (!occ[p]) gap = p;
  }
  if (gap < 0) return true;  // fully surrounded: one arc
  // Walk the ring once starting after a gap; cardinal neighbors sit at
  // the even positions. Connected iff at most one arc holds cardinals.
  int arcs_with_cardinal = 0;
  bool arc_has_cardinal = false;
  for (int s = 1; s <= 8; ++s) {
    const int p = (gap + s) % 8;
    if (occ[p]) {
      arc_has_cardinal |= (p % 2) == 0;
    } else {
      arcs_with_cardinal += arc_has_cardinal;
      arc_has_cardinal = false;
    }
  }
  return arcs_with_cardinal <= 1;
}

void StreamingObservables::cluster_remove(std::uint32_t id,
                                          std::int8_t old_value) {
  const std::uint32_t root = dsu_.find(node_of_[id]);
  const std::int64_t s = dsu_.size_of(root);
  assert(s >= 1);
  hist_remove(s);
  dsu_.adjust_size(root, -1);
  if (s == 1) {
    --cluster_count_;
    return;
  }
  hist_add(s - 1);

  // Distinct same-old-value neighbors; field_[id] already holds the new
  // value, so the departed site can never re-enter the search.
  std::uint32_t nb[4];
  std::uint32_t adj[4];
  neighbors4(id, adj);
  int k = 0;
  for (int dir = 0; dir < 4; ++dir) {
    const std::uint32_t j = adj[dir];
    if (field_[j] != old_value) continue;
    bool dup = false;
    for (int a = 0; a < k; ++a) dup |= nb[a] == j;
    if (!dup) nb[k++] = j;
  }
  assert(k >= 1 && "a size >= 2 cluster must touch its departed site");
  if (k <= 1) return;  // removal of a degree-<=1 site cannot split
  if (ring_connected(id, old_value)) return;  // O(8) bulk-flip fast path

  // Round-robin multi-source BFS: one frontier per neighbor, expanded in
  // lockstep. Touching fronts merge; a front whose frontier exhausts
  // while others remain is a complete detached component and is split
  // off. Lockstep expansion bounds the cost at O(k * smallest piece) in
  // the split case and O(k * front meeting distance) otherwise.
  ++visit_epoch_;
  if (visit_epoch_ >= (1u << 30)) {
    std::fill(visit_.begin(), visit_.end(), 0u);
    visit_epoch_ = 1;
  }
  const std::uint32_t visit_tag = visit_epoch_ << 2;
  std::uint8_t front_parent[4];
  std::vector<std::uint32_t>* frontier = frontier_;
  std::size_t head[4] = {0, 0, 0, 0};
  bool done[4] = {false, false, false, false};
  for (int a = 0; a < k; ++a) {
    front_parent[a] = static_cast<std::uint8_t>(a);
    frontier[a].clear();
    visit_[nb[a]] = visit_tag | static_cast<std::uint32_t>(a);
    frontier[a].push_back(nb[a]);
  }
  const auto ffind = [&](int a) {
    while (front_parent[a] != a) a = front_parent[a];
    return a;
  };
  while (true) {
    int roots[4];
    int nroots = 0;
    for (int a = 0; a < k; ++a) {
      if (!done[a] && ffind(a) == a) roots[nroots++] = a;
    }
    if (nroots <= 1) break;  // the remainder is connected: no more splits
    for (int ri = 0; ri < nroots; ++ri) {
      const int g = roots[ri];
      if (done[g] || ffind(g) != g) continue;  // merged earlier this round
      if (head[g] >= frontier[g].size()) {
        // Complete component. If no other front is still live (they all
        // merged, split, or exhausted earlier this round), this is the
        // old cluster's remainder — leave it in place.
        int others = 0;
        for (int a = 0; a < k; ++a) {
          others += !done[a] && a != g && ffind(a) == a;
        }
        if (others == 0) {
          done[g] = true;
          continue;
        }
        // Detached from every other live front: split it off.
        const auto piece =
            static_cast<std::int64_t>(frontier[g].size());
        const std::uint32_t fresh = dsu_.grow();
        dsu_.adjust_size(fresh, piece - 1);
        for (const std::uint32_t site : frontier[g]) {
          node_of_[site] = fresh;
        }
        const std::int64_t rem = dsu_.size_of(root);
        assert(rem > piece && "a live front remains in the old cluster");
        hist_remove(rem);
        hist_add(rem - piece);
        hist_add(piece);
        dsu_.adjust_size(root, -piece);
        ++cluster_count_;
        ++splits_;
        SEG_COUNT("streaming.splits", 1);
        SEG_HISTOGRAM("streaming.split_piece_sites", piece);
        done[g] = true;
        continue;
      }
      const std::uint32_t site = frontier[g][head[g]++];
      std::uint32_t expand[4];
      neighbors4(site, expand);
      for (int dir = 0; dir < 4; ++dir) {
        const std::uint32_t t = expand[dir];
        if (field_[t] != old_value) continue;
        const std::uint32_t tag = visit_[t];
        if ((tag >> 2) == visit_epoch_) {
          const int h = ffind(static_cast<int>(tag & 3u));
          if (h != g) {
            // Fronts met: absorb h into g (explored prefixes re-pop as
            // cheap no-ops; visits are never double counted).
            front_parent[h] = static_cast<std::uint8_t>(g);
            frontier[g].insert(frontier[g].end(), frontier[h].begin(),
                               frontier[h].end());
            frontier[h].clear();
          }
          continue;
        }
        visit_[t] = visit_tag | static_cast<std::uint32_t>(g);
        frontier[g].push_back(t);
      }
    }
  }
}

void StreamingObservables::cluster_insert(std::uint32_t id) {
  const std::int8_t v = field_[id];
  const std::uint32_t node = dsu_.grow();
  node_of_[id] = node;
  ++cluster_count_;
  hist_add(1);
  std::uint32_t adj[4];
  neighbors4(id, adj);
  for (int dir = 0; dir < 4; ++dir) {
    const std::uint32_t j = adj[dir];
    if (field_[j] != v) continue;
    const std::uint32_t ra = dsu_.find(node_of_[j]);
    const std::uint32_t rb = dsu_.find(node);
    if (ra == rb) continue;
    const std::int64_t sa = dsu_.size_of(ra);
    const std::int64_t sb = dsu_.size_of(rb);
    dsu_.unite(ra, rb);
    hist_remove(sa);
    hist_remove(sb);
    hist_add(sa + sb);
    --cluster_count_;
  }
}

double StreamingObservables::mean_cluster_size() const {
  return static_cast<double>(field_.size()) /
         static_cast<double>(std::max<std::size_t>(1, cluster_count_));
}

ClusterStats StreamingObservables::cluster_stats() const {
  ClusterStats stats;
  stats.cluster_count = cluster_count_;
  stats.largest_cluster = largest_;
  stats.mean_cluster_size = mean_cluster_size();
  stats.interface_length = interface_;
  return stats;
}

std::vector<double> StreamingObservables::pair_correlation() const {
  std::vector<double> c;
  if (config_.max_r <= 0) return c;
  const double mean =
      static_cast<double>(spin_sum_) / static_cast<double>(field_.size());
  c.reserve(corr_acc_.size());
  for (const std::int64_t acc : corr_acc_) {
    c.push_back(static_cast<double>(acc) /
                    (4.0 * static_cast<double>(field_.size())) -
                mean * mean);
  }
  return c;
}

void StreamingObservables::record_sample() {
  // Live-observable gauges for the progress reporter: published at the
  // sampling cadence (per sweep-ish), never from the per-flip path.
  SEG_GAUGE_SET("streaming.magnetization", spin_sum_);
  SEG_GAUGE_SET("streaming.clusters", cluster_count_);
  SEG_GAUGE_SET("streaming.interface", interface_);
  if (ring_.empty()) return;
  const std::size_t w = ring_.size();
  const std::int64_t m = spin_sum_;
  const std::size_t t = sample_count_;
  const std::size_t max_lag = std::min(t, w - 1);
  for (std::size_t l = 0; l <= max_lag; ++l) {
    const std::int64_t prev = l == 0 ? m : ring_[(t - l) % w];
    lag_prod_[l] += m * prev;
  }
  ring_[t % w] = m;
  if (t < w) first_[t] = m;
  sample_total_ += m;
  ++sample_count_;
}

double StreamingObservables::autocovariance(std::size_t lag) const {
  const std::size_t w = ring_.size();
  const std::size_t t = sample_count_;
  if (t == 0 || lag >= t || lag >= w) return 0.0;
  // Identical expression structure to autocovariance() in
  // analysis/correlation.cc; every operand is an exactly represented
  // integer, so the two evaluate bitwise equal.
  const double total = static_cast<double>(sample_total_);
  const double mean = total / static_cast<double>(t);
  std::int64_t head_excl = 0;
  for (std::size_t i = 0; i < lag; ++i) head_excl += first_[i];
  std::int64_t tail_excl = 0;
  for (std::size_t i = 0; i < lag; ++i) {
    tail_excl += ring_[(t - 1 - i) % w];
  }
  const double head = total - static_cast<double>(head_excl);
  const double tail = total - static_cast<double>(tail_excl);
  const double tl = static_cast<double>(t - lag);
  return (static_cast<double>(lag_prod_[lag]) - mean * (head + tail) +
          tl * mean * mean) /
         tl;
}

double StreamingObservables::autocorrelation(std::size_t lag) const {
  const double g0 = autocovariance(0);
  if (g0 == 0.0) return 0.0;
  return autocovariance(lag) / g0;
}

}  // namespace seg
