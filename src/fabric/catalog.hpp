// Content-addressed replica catalog — the data fabric's source of truth.
//
// A dataset is an immutable blob identified by a content hash; the catalog
// maps each hash to its size and the set of locations currently holding a
// replica (TaskVine-style). Transfer scheduling (staging.hpp) consults the
// catalog to find the cheapest source; caches (cache.hpp) add and remove
// replicas as they fill and evict.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/units.hpp"

namespace hhc::fabric {

/// Content address of a dataset (hex digest). Equal content => equal id, so
/// two producers of the same bytes share replicas automatically.
using DatasetId = std::string;

/// FNV-1a hash of (logical name, size) rendered as a hex digest. The
/// simulation never materializes payloads, so the logical name + size stand
/// in for the content; callers must put everything identity-relevant (run,
/// workflow, producer task) into `logical_name`.
DatasetId content_hash(std::string_view logical_name, Bytes size);

/// One catalog entry: immutable size plus the current replica set.
struct DatasetInfo {
  Bytes size = 0;
  std::vector<std::string> replicas;  ///< Location names, sorted, unique.
};

/// Replica catalog. Deterministic: replica sets are kept sorted so source
/// selection never depends on insertion order, and the datasets are hashed
/// by id with no call exposing their order (resident_bytes and
/// drop_location only sum and count).
class DataCatalog {
 public:
  /// Registers a dataset (idempotent). Re-registering with a different size
  /// throws std::invalid_argument — content addresses are immutable.
  void register_dataset(const DatasetId& id, Bytes size);

  bool known(const DatasetId& id) const noexcept;

  /// Size of a known dataset; throws std::out_of_range for unknown ids.
  Bytes size_of(const DatasetId& id) const;

  /// Adds `location` to the replica set (registers implicitly unknown ids
  /// are rejected: throws std::out_of_range). Idempotent.
  void add_replica(const DatasetId& id, const std::string& location);

  /// Removes a replica; returns whether one was removed.
  bool remove_replica(const DatasetId& id, const std::string& location);

  bool has_replica(const DatasetId& id, const std::string& location) const noexcept;

  /// Sorted replica locations; empty vector for unknown ids.
  const std::vector<std::string>& replicas(const DatasetId& id) const;

  std::size_t dataset_count() const noexcept { return datasets_.size(); }
  std::size_t replica_count(const DatasetId& id) const noexcept;

  /// Total bytes resident at `location` across all datasets.
  Bytes resident_bytes(const std::string& location) const;

  /// Removes `location` from every replica set (site outage / storage loss).
  /// Returns the number of replicas dropped. Datasets whose last replica
  /// lived there become unreachable — lineage recovery's trigger.
  std::size_t drop_location(const std::string& location);

  /// Drops every dataset and replica (fresh run).
  void clear() noexcept { datasets_.clear(); }

 private:
  std::unordered_map<DatasetId, DatasetInfo> datasets_;
};

}  // namespace hhc::fabric
