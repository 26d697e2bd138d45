#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhc::cluster {

std::size_t ClusterSpec::total_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& c : classes) n += c.count;
  return n;
}

Cluster::Cluster(ClusterSpec spec) : spec_(std::move(spec)) {
  if (spec_.classes.empty())
    throw std::invalid_argument("Cluster: spec has no node classes");
  NodeId id = 0;
  for (std::size_t ci = 0; ci < spec_.classes.size(); ++ci) {
    const auto& c = spec_.classes[ci];
    for (std::size_t i = 0; i < c.count; ++i) {
      Node n;
      n.id = id++;
      n.class_index = ci;
      n.free_cores = c.cores;
      n.free_gpus = c.gpus;
      n.free_memory = c.memory;
      nodes_.push_back(n);
    }
  }
}

double Cluster::total_cores() const noexcept {
  double total = 0;
  for (const auto& n : nodes_)
    if (n.up) total += spec_.classes[n.class_index].cores;
  return total;
}

int Cluster::total_gpus() const noexcept {
  int total = 0;
  for (const auto& n : nodes_)
    if (n.up) total += spec_.classes[n.class_index].gpus;
  return total;
}

double Cluster::used_cores() const noexcept {
  double used = 0;
  for (const auto& n : nodes_)
    if (n.up) used += spec_.classes[n.class_index].cores - n.free_cores;
  return used;
}

int Cluster::used_gpus() const noexcept {
  int used = 0;
  for (const auto& n : nodes_)
    if (n.up) used += spec_.classes[n.class_index].gpus - n.free_gpus;
  return used;
}

std::size_t Cluster::up_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (node.up) ++n;
  return n;
}

bool Cluster::fits(NodeId id, const wf::Resources& req) const {
  const Node& n = nodes_.at(id);
  return n.up && n.free_cores >= req.cores_per_node && n.free_gpus >= req.gpus_per_node &&
         n.free_memory >= req.memory_per_node;
}

std::optional<Allocation> Cluster::find_allocation(const wf::Resources& req) const {
  return find_allocation_if(req, [](NodeId) { return true; });
}

const Cluster::FreeIndex& Cluster::least_allocated() const {
  if (by_free_.empty())
    for (const auto& n : nodes_) by_free_.emplace(n.free_cores, n.id);
  return by_free_;
}

void Cluster::set_free_cores(Node& n, double free_cores) {
  if (!by_free_.empty() && free_cores != n.free_cores) {
    auto entry = by_free_.extract({n.free_cores, n.id});
    entry.value().first = free_cores;
    by_free_.insert(std::move(entry));
  }
  n.free_cores = free_cores;
}

void Cluster::claim(const Allocation& alloc) {
  // Verify first so a failed claim leaves state untouched.
  for (const auto& c : alloc.claims) {
    const Node& n = nodes_.at(c.node);
    if (!n.up || n.free_cores < c.cores || n.free_gpus < c.gpus ||
        n.free_memory < c.memory)
      throw std::logic_error("Cluster::claim: allocation no longer fits");
  }
  for (const auto& c : alloc.claims) {
    Node& n = nodes_.at(c.node);
    set_free_cores(n, n.free_cores - c.cores);
    n.free_gpus -= c.gpus;
    n.free_memory -= c.memory;
    ++n.running_jobs;
  }
}

void Cluster::release(const Allocation& alloc) {
  ++capacity_generation_;
  for (const auto& c : alloc.claims) {
    Node& n = nodes_.at(c.node);
    if (!n.up) continue;  // capacity was already reset by set_node_down/up
    const auto& cls = spec_.classes[n.class_index];
    set_free_cores(n, std::min(cls.cores, n.free_cores + c.cores));
    n.free_gpus = std::min(cls.gpus, n.free_gpus + c.gpus);
    n.free_memory = std::min(cls.memory, n.free_memory + c.memory);
    if (n.running_jobs) --n.running_jobs;
  }
}

void Cluster::set_node_down(NodeId id) {
  Node& n = nodes_.at(id);
  n.up = false;
  set_free_cores(n, 0);
  n.free_gpus = 0;
  n.free_memory = 0;
  n.running_jobs = 0;
}

void Cluster::set_node_up(NodeId id) {
  Node& n = nodes_.at(id);
  ++capacity_generation_;
  const auto& cls = spec_.classes[n.class_index];
  n.up = true;
  set_free_cores(n, cls.cores);
  n.free_gpus = cls.gpus;
  n.free_memory = cls.memory;
  n.running_jobs = 0;
}

double Cluster::allocation_speed(const Allocation& alloc) const {
  double speed = 0.0;
  bool first = true;
  for (const auto& c : alloc.claims) {
    const double s = node_speed(c.node);
    speed = first ? s : std::min(speed, s);
    first = false;
  }
  return first ? 1.0 : speed;
}

ClusterSpec homogeneous_cluster(std::size_t nodes, double cores, Bytes memory,
                                double speed, int gpus) {
  ClusterSpec spec;
  spec.name = "homogeneous";
  NodeClass c;
  c.name = "standard";
  c.count = nodes;
  c.cores = cores;
  c.gpus = gpus;
  c.memory = memory;
  c.cpu_speed = speed;
  spec.classes.push_back(c);
  return spec;
}

ClusterSpec frontier_like(std::size_t nodes) {
  ClusterSpec spec;
  spec.name = "frontier-like";
  NodeClass c;
  c.name = "mi250x-node";
  c.count = nodes;
  c.cores = 56;  // 64 cores minus 8 reserved for system processes (paper §4.3)
  c.gpus = 8;    // 8 GCDs per node
  c.memory = gib(512);
  c.cpu_speed = 1.0;
  c.io_bandwidth = 2e9;
  spec.classes.push_back(c);
  spec.shared_fs_bandwidth = 1e12;
  return spec;
}

ClusterSpec heterogeneous_cwsi_cluster(std::size_t nodes_per_class) {
  ClusterSpec spec;
  spec.name = "cwsi-heterogeneous";
  NodeClass slow;
  slow.name = "slow";
  slow.count = 1;
  slow.cores = 8;
  slow.memory = gib(32);
  slow.cpu_speed = 0.6;
  slow.io_bandwidth = 100e6;
  NodeClass medium;
  medium.name = "medium";
  medium.count = 1;
  medium.cores = 16;
  medium.memory = gib(64);
  medium.cpu_speed = 1.0;
  medium.io_bandwidth = 250e6;
  NodeClass fast;
  fast.name = "fast";
  fast.count = 1;
  fast.cores = 32;
  fast.memory = gib(128);
  fast.cpu_speed = 1.6;
  fast.io_bandwidth = 600e6;
  // Interleave the classes so node ids alternate slow/medium/fast: a
  // first-fit baseline then spreads over all classes instead of being
  // artificially penalized (or favoured) by node enumeration order.
  for (std::size_t i = 0; i < nodes_per_class; ++i) {
    spec.classes.push_back(slow);
    spec.classes.push_back(medium);
    spec.classes.push_back(fast);
  }
  return spec;
}

}  // namespace hhc::cluster
