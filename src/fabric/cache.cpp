#include "fabric/cache.hpp"

namespace hhc::fabric {

const char* to_string(EvictionPolicy p) noexcept {
  switch (p) {
    case EvictionPolicy::LRU: return "lru";
    case EvictionPolicy::LFU: return "lfu";
  }
  return "?";
}

ReplicaCache::ReplicaCache(std::string location, CacheConfig config,
                           DataCatalog* catalog)
    : location_(std::move(location)), config_(config), catalog_(catalog) {}

bool ReplicaCache::touch(const DatasetId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  it->second.last_use = ++tick_;
  ++it->second.uses;
  return true;
}

bool ReplicaCache::insert(const DatasetId& id, Bytes size) {
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    it->second.last_use = ++tick_;
    ++it->second.uses;
    return true;
  }
  // Capacity 0 is "caching disabled": reject everything, even zero-byte
  // datasets — otherwise a disabled cache would still publish catalog
  // replicas and data-gravity placement would see phantom residency.
  if (config_.capacity == 0) return false;
  if (size > config_.capacity) return false;  // can never fit; stage to scratch
  while (used_ + size > config_.capacity) evict_one();
  entries_[id] = Entry{size, ++tick_, 1};
  used_ += size;
  if (catalog_) {
    catalog_->register_dataset(id, size);
    catalog_->add_replica(id, location_);
  }
  return true;
}

bool ReplicaCache::evict(const DatasetId& id) {
  if (entries_.find(id) == entries_.end()) return false;
  drop(id, /*count_as_eviction=*/true);
  return true;
}

void ReplicaCache::clear() {
  while (!entries_.empty()) drop(entries_.begin()->first, false);
}

double ReplicaCache::hit_ratio() const noexcept {
  const std::uint64_t lookups = hits_ + misses_;
  return lookups == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(lookups);
}

void ReplicaCache::evict_one() {
  // Victim: LRU -> smallest last_use; LFU -> fewest uses, ties by last_use.
  // Map iteration order breaks any remaining tie deterministically.
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const Entry& e = it->second;
    const Entry& v = victim->second;
    const bool better =
        config_.policy == EvictionPolicy::LRU
            ? e.last_use < v.last_use
            : (e.uses < v.uses || (e.uses == v.uses && e.last_use < v.last_use));
    if (better) victim = it;
  }
  drop(victim->first, /*count_as_eviction=*/true);
}

void ReplicaCache::drop(DatasetId id, bool count_as_eviction) {
  auto it = entries_.find(id);
  used_ -= it->second.size;
  entries_.erase(it);
  if (count_as_eviction) ++evictions_;
  if (catalog_) catalog_->remove_replica(id, location_);
}

}  // namespace hhc::fabric
