// Heterogeneous cluster model: node classes, per-node capacity bookkeeping,
// multi-node allocations. This is the substrate standing in for Frontier,
// Kubernetes clusters and the Ares HPC system (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/units.hpp"
#include "workflow/workflow.hpp"

namespace hhc::cluster {

using NodeId = std::uint32_t;

/// A homogeneous group of nodes.
struct NodeClass {
  std::string name = "default";
  std::size_t count = 1;          ///< Number of nodes in this class.
  double cores = 1.0;             ///< Cores per node.
  int gpus = 0;                   ///< GPUs per node.
  Bytes memory = gib(8);          ///< Memory per node.
  double cpu_speed = 1.0;         ///< Relative compute speed (1.0 = reference).
  double io_bandwidth = 200e6;    ///< Node <-> shared FS bandwidth, bytes/s.
};

/// Whole-cluster description.
struct ClusterSpec {
  std::string name = "cluster";
  std::vector<NodeClass> classes;
  double shared_fs_bandwidth = 10e9;  ///< Aggregate shared-filesystem bandwidth.

  std::size_t total_nodes() const noexcept;
};

/// What one job holds on one node.
struct NodeClaim {
  NodeId node = 0;
  double cores = 0.0;
  int gpus = 0;
  Bytes memory = 0;
};

/// A placed multi-node allocation.
struct Allocation {
  std::vector<NodeClaim> claims;
  bool empty() const noexcept { return claims.empty(); }
  std::size_t node_count() const noexcept { return claims.size(); }
};

/// Runtime state of one node.
struct Node {
  NodeId id = 0;
  std::size_t class_index = 0;
  bool up = true;
  double free_cores = 0.0;
  int free_gpus = 0;
  Bytes free_memory = 0;
  std::size_t running_jobs = 0;
};

/// Capacity bookkeeping over a set of heterogeneous nodes. Pure state — the
/// ResourceManager drives it from simulation events.
class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  const ClusterSpec& spec() const noexcept { return spec_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  const NodeClass& node_class(NodeId id) const {
    return spec_.classes.at(nodes_.at(id).class_index);
  }

  /// Total cores/gpus across up nodes.
  double total_cores() const noexcept;
  int total_gpus() const noexcept;
  double used_cores() const noexcept;
  int used_gpus() const noexcept;
  std::size_t up_nodes() const noexcept;

  /// True if the request fits on `node` right now.
  bool fits(NodeId node, const wf::Resources& req) const;

  /// Finds nodes for a multi-node request (each node must satisfy the
  /// per-node figures), ranked as find_allocation_if ranks them; returns
  /// nullopt when not enough capacity. Does not modify state.
  std::optional<Allocation> find_allocation(const wf::Resources& req) const;

  /// Finds an allocation restricted to nodes satisfying `pred`. Candidate
  /// nodes are ranked least-loaded-first (most free cores, ties by id) —
  /// the Kubernetes "LeastAllocated" scoring — so placement quality does
  /// not depend on node enumeration order. The walk follows the free-core
  /// index and stops at the first node with fewer free cores than the
  /// request: every later node has no more, so none of them fits. A probe
  /// therefore costs O(nodes visited), not O(all nodes).
  template <typename Pred>
  std::optional<Allocation> find_allocation_if(const wf::Resources& req,
                                               Pred&& pred) const {
    // A negative count wraps to a size no cluster has: never satisfiable.
    const auto want = static_cast<std::size_t>(req.nodes);
    Allocation alloc;
    for (const auto& [free_cores, id] : least_allocated()) {
      if (alloc.claims.size() == want || free_cores < req.cores_per_node) break;
      if (fits(id, req) && pred(id))
        alloc.claims.push_back(NodeClaim{id, req.cores_per_node, req.gpus_per_node,
                                         req.memory_per_node});
    }
    if (alloc.claims.size() < want) return std::nullopt;
    return alloc;
  }

  /// Claims the allocation (must currently fit; throws otherwise).
  void claim(const Allocation& alloc);

  /// Releases a previously claimed allocation.
  void release(const Allocation& alloc);

  /// Marks a node down; the caller is responsible for failing jobs on it.
  void set_node_down(NodeId id);
  /// Marks a node back up with full free capacity (jobs on it must be gone).
  void set_node_up(NodeId id);

  /// Node speed for runtime scaling.
  double node_speed(NodeId id) const { return node_class(id).cpu_speed; }

  /// Slowest speed across an allocation (MPI jobs run at the slowest rank).
  double allocation_speed(const Allocation& alloc) const;

  /// Effective per-job I/O bandwidth on a node.
  double node_io_bandwidth(NodeId id) const { return node_class(id).io_bandwidth; }

 private:
  /// Index key: (free cores, node id), ordered most-free-first, then by id.
  using FreeKey = std::pair<double, NodeId>;
  struct LeastAllocatedFirst {
    bool operator()(const FreeKey& a, const FreeKey& b) const noexcept {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    }
  };
  using FreeIndex = std::set<FreeKey, LeastAllocatedFirst>;

  /// The index over every node (down nodes sit at the tail with 0 free
  /// cores), built on first use so constructing a Cluster stays a flat fill.
  const FreeIndex& least_allocated() const;
  /// Sets a node's free cores, re-keying it in the index once that exists.
  void set_free_cores(Node& n, double free_cores);

  ClusterSpec spec_;
  std::vector<Node> nodes_;
  /// Empty until the first find_allocation*; mutable because that const call
  /// builds it, so a Cluster must not be probed from two threads at once.
  mutable FreeIndex by_free_;
};

/// Convenience single-class specs used across tests and benches.
ClusterSpec homogeneous_cluster(std::size_t nodes, double cores, Bytes memory,
                                double speed = 1.0, int gpus = 0);

/// Frontier-like spec for the EnTK experiments (paper §4.3): 56 usable cores
/// + 8 GPU tiles per node.
ClusterSpec frontier_like(std::size_t nodes = 8000);

/// Three-class heterogeneous cluster for the CWSI experiments (paper §3):
/// slow/medium/fast node groups, unequal I/O bandwidth.
ClusterSpec heterogeneous_cwsi_cluster(std::size_t nodes_per_class = 8);

}  // namespace hhc::cluster
