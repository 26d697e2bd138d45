#include "fabric/catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace hhc::fabric {
namespace {

TEST(ContentHash, DeterministicAndDiscriminating) {
  const DatasetId a = content_hash("wf1/t0", 100);
  EXPECT_EQ(a, content_hash("wf1/t0", 100));
  EXPECT_EQ(a.size(), 16u);  // 64-bit digest as hex
  EXPECT_NE(a, content_hash("wf1/t1", 100));  // name matters
  EXPECT_NE(a, content_hash("wf1/t0", 101));  // size matters
}

TEST(DataCatalog, RegisterIsIdempotentButSizeIsImmutable) {
  DataCatalog cat;
  const auto id = content_hash("d", 10);
  cat.register_dataset(id, 10);
  cat.register_dataset(id, 10);  // fine
  EXPECT_EQ(cat.dataset_count(), 1u);
  EXPECT_EQ(cat.size_of(id), 10u);
  EXPECT_THROW(cat.register_dataset(id, 11), std::invalid_argument);
}

TEST(DataCatalog, ReplicaSetIsSortedAndUnique) {
  DataCatalog cat;
  const auto id = content_hash("d", 10);
  cat.register_dataset(id, 10);
  cat.add_replica(id, "zeta");
  cat.add_replica(id, "alpha");
  cat.add_replica(id, "zeta");  // duplicate ignored
  EXPECT_EQ(cat.replica_count(id), 2u);
  EXPECT_EQ(cat.replicas(id), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(cat.has_replica(id, "alpha"));
  EXPECT_FALSE(cat.has_replica(id, "beta"));
}

TEST(DataCatalog, RemoveReplica) {
  DataCatalog cat;
  const auto id = content_hash("d", 10);
  cat.register_dataset(id, 10);
  cat.add_replica(id, "a");
  EXPECT_TRUE(cat.remove_replica(id, "a"));
  EXPECT_FALSE(cat.remove_replica(id, "a"));  // already gone
  EXPECT_FALSE(cat.remove_replica("nonexistent", "a"));
  EXPECT_EQ(cat.replica_count(id), 0u);
}

TEST(DataCatalog, UnknownDatasets) {
  DataCatalog cat;
  EXPECT_FALSE(cat.known("nope"));
  EXPECT_THROW(cat.size_of("nope"), std::out_of_range);
  EXPECT_THROW(cat.add_replica("nope", "a"), std::out_of_range);
  EXPECT_TRUE(cat.replicas("nope").empty());
  EXPECT_EQ(cat.replica_count("nope"), 0u);
}

TEST(DataCatalog, ResidentBytesSumsPerLocation) {
  DataCatalog cat;
  const auto a = content_hash("a", 100);
  const auto b = content_hash("b", 50);
  cat.register_dataset(a, 100);
  cat.register_dataset(b, 50);
  cat.add_replica(a, "site");
  cat.add_replica(b, "site");
  cat.add_replica(b, "other");
  EXPECT_EQ(cat.resident_bytes("site"), 150u);
  EXPECT_EQ(cat.resident_bytes("other"), 50u);
  EXPECT_EQ(cat.resident_bytes("empty"), 0u);
}

TEST(DataCatalog, ClearDropsEverything) {
  DataCatalog cat;
  const auto id = content_hash("d", 10);
  cat.register_dataset(id, 10);
  cat.add_replica(id, "a");
  cat.clear();
  EXPECT_EQ(cat.dataset_count(), 0u);
  EXPECT_FALSE(cat.known(id));
}

// Contract test: a seeded random sequence of catalog operations against an
// ordered reference model. Every answer must match the model and every
// replica list must stay sorted, so the catalog's own container order can
// never show through its API.
struct CatalogModel {
  struct Entry {
    Bytes size = 0;
    std::set<std::string> replicas;
  };
  std::map<DatasetId, Entry> datasets;
};

void expect_matches_model(const DataCatalog& cat, const CatalogModel& model,
                          const std::vector<DatasetId>& ids,
                          const std::vector<std::string>& locations) {
  ASSERT_EQ(cat.dataset_count(), model.datasets.size());
  for (const DatasetId& id : ids) {
    const auto it = model.datasets.find(id);
    ASSERT_EQ(cat.known(id), it != model.datasets.end()) << id;
    const std::vector<std::string>& reps = cat.replicas(id);
    EXPECT_TRUE(std::is_sorted(reps.begin(), reps.end())) << id;
    if (it == model.datasets.end()) {
      EXPECT_THROW(cat.size_of(id), std::out_of_range);
      EXPECT_TRUE(reps.empty());
      EXPECT_EQ(cat.replica_count(id), 0u);
      continue;
    }
    EXPECT_EQ(cat.size_of(id), it->second.size);
    EXPECT_EQ(reps, std::vector<std::string>(it->second.replicas.begin(),
                                             it->second.replicas.end()))
        << id;
    EXPECT_EQ(cat.replica_count(id), it->second.replicas.size());
    for (const std::string& loc : locations)
      EXPECT_EQ(cat.has_replica(id, loc), it->second.replicas.count(loc) > 0);
  }
  for (const std::string& loc : locations) {
    Bytes want = 0;
    for (const auto& [id, e] : model.datasets)
      if (e.replicas.count(loc)) want += e.size;
    EXPECT_EQ(cat.resident_bytes(loc), want) << loc;
  }
}

TEST(DataCatalog, MatchesOrderedModelUnderRandomOperations) {
  const std::vector<std::string> locations = {"alpha", "beta", "cache/alpha",
                                              "gamma", "zeta"};
  for (std::uint64_t seed = 1; seed <= 10 && !HasFailure(); ++seed) {
    Rng rng(seed);
    std::vector<DatasetId> ids;
    for (int i = 0; i < 40; ++i)
      ids.push_back(content_hash("d" + std::to_string(i), 0));
    auto size_of = [](std::size_t i) { return static_cast<Bytes>(100 + 37 * i); };
    DataCatalog cat;
    CatalogModel model;
    for (int step = 0; step < 600 && !HasFailure(); ++step) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      const DatasetId& id = ids[i];
      const std::string& loc = locations[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(locations.size()) - 1))];
      const auto op = rng.uniform_int(0, 99);
      const auto known = model.datasets.find(id);
      if (op < 30) {
        cat.register_dataset(id, size_of(i));
        model.datasets[id].size = size_of(i);
      } else if (op < 33) {
        if (known != model.datasets.end()) {
          EXPECT_THROW(cat.register_dataset(id, size_of(i) + 1),
                       std::invalid_argument);
        }
      } else if (op < 65) {
        if (known == model.datasets.end()) {
          EXPECT_THROW(cat.add_replica(id, loc), std::out_of_range);
        } else {
          cat.add_replica(id, loc);
          known->second.replicas.insert(loc);
        }
      } else if (op < 90) {
        const bool had = known != model.datasets.end() &&
                         known->second.replicas.erase(loc) > 0;
        EXPECT_EQ(cat.remove_replica(id, loc), had);
      } else if (op < 99) {
        std::size_t want = 0;
        for (auto& [key, e] : model.datasets) want += e.replicas.erase(loc);
        EXPECT_EQ(cat.drop_location(loc), want);
      } else {
        cat.clear();
        model.datasets.clear();
      }
      expect_matches_model(cat, model, ids, locations);
      if (HasFailure()) ADD_FAILURE() << "diverged at step " << step << " of seed " << seed;
    }
  }
}

}  // namespace
}  // namespace hhc::fabric
