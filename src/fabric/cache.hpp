// Per-site / per-worker replica cache with bounded capacity and LRU/LFU
// eviction. A cache is the mutable face of one location in the replica
// catalog: inserting a dataset registers a replica there, evicting removes
// it, so the TransferScheduler's source selection always sees the truth.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "fabric/catalog.hpp"
#include "support/units.hpp"

namespace hhc::fabric {

enum class EvictionPolicy { LRU, LFU };

const char* to_string(EvictionPolicy p) noexcept;

struct CacheConfig {
  Bytes capacity = gib(64);                   ///< Total bytes this cache holds.
  EvictionPolicy policy = EvictionPolicy::LRU;
};

/// Bounded dataset cache for one location. Not tied to the sim clock — the
/// recency ordering uses a logical access counter, which is deterministic
/// and finer-grained than equal-timestamp events.
class ReplicaCache {
 public:
  /// `catalog` may be null (standalone cache); when set, insert/evict keep
  /// the catalog's replica set for `location` in sync.
  ReplicaCache(std::string location, CacheConfig config,
               DataCatalog* catalog = nullptr);

  const std::string& location() const noexcept { return location_; }
  const CacheConfig& config() const noexcept { return config_; }

  bool contains(const DatasetId& id) const noexcept { return entries_.count(id) > 0; }

  /// Lookup with hit/miss accounting; a hit refreshes recency/frequency.
  bool touch(const DatasetId& id);

  /// Inserts a dataset, evicting per policy until it fits. Returns false
  /// (and caches nothing) when `size` exceeds the total capacity. Inserting
  /// a resident dataset just refreshes it.
  bool insert(const DatasetId& id, Bytes size);

  /// Removes one dataset; returns whether it was resident.
  bool evict(const DatasetId& id);

  /// Drops everything (and the catalog replicas when attached).
  void clear();

  Bytes used() const noexcept { return used_; }
  Bytes capacity() const noexcept { return config_.capacity; }
  std::size_t entry_count() const noexcept { return entries_.size(); }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// hits / (hits + misses); 0 before any lookup.
  double hit_ratio() const noexcept;

 private:
  struct Entry {
    Bytes size = 0;
    std::uint64_t last_use = 0;  ///< Logical access tick (LRU key).
    std::uint64_t uses = 0;      ///< Access count (LFU key).
  };

  void evict_one();
  /// Takes the id by value: callers pass the key of the entry it erases.
  void drop(DatasetId id, bool count_as_eviction);

  std::string location_;
  CacheConfig config_;
  DataCatalog* catalog_ = nullptr;
  std::map<DatasetId, Entry> entries_;
  Bytes used_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hhc::fabric
