// Shares one immutable GraphTopology among the concurrent users of a key.
//
// A campaign's graph replicas all run on their point's topology, which is
// a pure function of the spec and the point — never of the replica seed.
// The registry lets the replicas of a point that are in flight together
// use one build instead of one each:
//  * the first acquire of a key builds the graph;
//  * acquires arriving while any lease on the key is alive get the same
//    object from that one build;
//  * the release of the key's last lease erases the entry.
// So the registry holds exactly the graphs in use, memory stays bounded by
// the replicas in flight, and it is empty once every lease is gone. A key
// whose users never overlap (one worker, or replicas that finish before
// the next starts) is rebuilt per user; that is the price of the bound.
//
// The build runs outside the registry-wide lock, under a per-entry
// std::once_flag: users of different keys build in parallel, and users of
// the same key wait for its one build.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/topology.h"

namespace seg {

class TopologyRegistry {
  struct Entry {
    std::size_t users = 0;
    std::once_flag built;
    std::shared_ptr<const GraphTopology> graph;  // nullptr: build failed
    std::string error;                           // the failed build's why
  };

 public:
  // One user's hold on a key. Move-only; destruction releases the key.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : registry_(other.registry_), key_(other.key_), entry_(other.entry_) {
      other.registry_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (registry_) registry_->release(key_);
    }

    // The shared graph; nullptr when the build failed (see error()).
    const std::shared_ptr<const GraphTopology>& graph() const {
      return entry_->graph;
    }
    const std::string& error() const { return entry_->error; }

   private:
    friend class TopologyRegistry;
    Lease(TopologyRegistry* registry, std::size_t key, Entry* entry)
        : registry_(registry), key_(key), entry_(entry) {}

    TopologyRegistry* registry_;
    std::size_t key_;
    Entry* entry_;  // stable: the entry lives while any lease holds it
  };

  // Leases `key`, calling build(&error) -> shared_ptr<const GraphTopology>
  // when no live lease already holds a built graph for it. A failed build
  // (nullptr) is shared like a successful one until the entry is erased.
  template <class Build>
  Lease acquire(std::size_t key, Build&& build) {
    Lease lease(this, key, enter(key));
    Entry& entry = *lease.entry_;
    std::call_once(entry.built, [&] { entry.graph = build(&entry.error); });
    return lease;
  }

 private:
  Entry* enter(std::size_t key);
  void release(std::size_t key);

  std::mutex mutex_;
  std::unordered_map<std::size_t, Entry> entries_;
};

}  // namespace seg
