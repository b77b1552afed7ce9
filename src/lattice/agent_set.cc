#include "lattice/agent_set.h"

#include <cassert>

namespace seg {

void AgentSet::insert(std::uint32_t id) {
  assert(id - base_ < pos_.size());
  if (pos_[id - base_] != kAbsent) return;
  pos_[id - base_] = static_cast<std::uint32_t>(items_.size());
  items_.push_back(id);
}

void AgentSet::erase(std::uint32_t id) {
  assert(id - base_ < pos_.size());
  const std::uint32_t p = pos_[id - base_];
  if (p == kAbsent) return;
  const std::uint32_t last = items_.back();
  items_[p] = last;
  pos_[last - base_] = p;
  items_.pop_back();
  pos_[id - base_] = kAbsent;
}

void AgentSet::insert_band(std::uint32_t id) {
  assert(id - base_ < pos_.size());
  if (pos_[id - base_] != kAbsent) return;
  // The first interior item moves to the end; id takes its slot.
  items_.push_back(id);
  move_item(band_, items_.size() - 1);
  items_[band_] = id;
  pos_[id - base_] = static_cast<std::uint32_t>(band_);
  ++band_;
}

void AgentSet::erase_band(std::uint32_t id) {
  assert(id - base_ < pos_.size());
  const std::uint32_t p = pos_[id - base_];
  if (p == kAbsent) return;
  assert(p < band_);
  // The last band item fills the hole, the last item fills the slot it
  // left (unless that slot is the last one).
  const std::size_t edge = --band_;
  const std::size_t last = items_.size() - 1;
  move_item(edge, p);
  if (last != edge) move_item(last, edge);
  items_.pop_back();
  pos_[id - base_] = kAbsent;
}

std::uint32_t AgentSet::sample(Rng& rng) const {
  assert(!items_.empty());
  return items_[rng.uniform_below(items_.size())];
}

}  // namespace seg
