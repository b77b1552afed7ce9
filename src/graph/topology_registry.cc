#include "graph/topology_registry.h"

#include <utility>

namespace seg {

TopologyRegistry::Entry* TopologyRegistry::enter(std::size_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_.try_emplace(key).first->second;
  ++entry.users;
  return &entry;
}

void TopologyRegistry::release(std::size_t key) {
  // The graph is freed after the lock drops, so a large teardown never
  // stalls another worker's acquire.
  std::shared_ptr<const GraphTopology> last_ref;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (--it->second.users > 0) return;
  last_ref = std::move(it->second.graph);
  entries_.erase(it);
}

}  // namespace seg
