// Differential tests for Cluster's free-core index: after every mutation,
// find_allocation / find_allocation_if must return exactly what a linear scan
// plus stable_sort (the LeastAllocated ranking) returns on the same state.
// Also pins the ResourceManager's queued-job probe and EnTK's head-of-queue
// resubmission, which ride on the same placement path.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/resource_manager.hpp"
#include "cluster/schedulers.hpp"
#include "entk/app_manager.hpp"
#include "support/rng.hpp"

namespace hhc::cluster {
namespace {

/// The reference ranking: every node that passes `pred` and fits, ranked by
/// free cores descending with ties kept in id order.
std::optional<Allocation> reference_find(const Cluster& c, const wf::Resources& req,
                                         const std::function<bool(NodeId)>& pred) {
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < c.node_count(); ++id)
    if (pred(id) && c.fits(id, req)) candidates.push_back(id);
  if (candidates.size() < static_cast<std::size_t>(req.nodes)) return std::nullopt;
  std::stable_sort(candidates.begin(), candidates.end(), [&c](NodeId a, NodeId b) {
    return c.node(a).free_cores > c.node(b).free_cores;
  });
  Allocation alloc;
  for (int i = 0; i < req.nodes; ++i)
    alloc.claims.push_back(NodeClaim{candidates[static_cast<std::size_t>(i)],
                                     req.cores_per_node, req.gpus_per_node,
                                     req.memory_per_node});
  return alloc;
}

void expect_same(const std::optional<Allocation>& got,
                 const std::optional<Allocation>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  ASSERT_EQ(got->claims.size(), want->claims.size());
  for (std::size_t i = 0; i < got->claims.size(); ++i) {
    EXPECT_EQ(got->claims[i].node, want->claims[i].node) << "claim " << i;
    EXPECT_EQ(got->claims[i].cores, want->claims[i].cores);
    EXPECT_EQ(got->claims[i].gpus, want->claims[i].gpus);
    EXPECT_EQ(got->claims[i].memory, want->claims[i].memory);
  }
}

/// Two classes with fractional core counts, so free cores take many
/// non-integer values and ties across classes are common.
ClusterSpec fractional_cluster() {
  ClusterSpec spec;
  spec.name = "fractional";
  NodeClass a;
  a.name = "a";
  a.count = 5;
  a.cores = 3.5;
  a.gpus = 2;
  a.memory = gib(16);
  NodeClass b;
  b.name = "b";
  b.count = 4;
  b.cores = 7.25;
  b.gpus = 1;
  b.memory = gib(32);
  spec.classes = {a, b, a};
  return spec;
}

wf::Resources random_request(Rng& rng) {
  static const std::vector<double> kCores = {0.0, 0.25, 0.5, 1.0, 1.75, 2.0,
                                             3.5, 4.0, 7.25, 8.0, 16.0};
  wf::Resources r;
  r.nodes = static_cast<int>(rng.uniform_int(0, 4));
  r.cores_per_node = kCores[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kCores.size()) - 1))];
  r.gpus_per_node = static_cast<int>(rng.uniform_int(0, 1));
  r.memory_per_node = gib(static_cast<double>(rng.uniform_int(0, 20)));
  return r;
}

void check_all_probes(const Cluster& c, Rng& rng) {
  for (int probe = 0; probe < 6; ++probe) {
    const wf::Resources req = random_request(rng);
    const auto all = [](NodeId) { return true; };
    expect_same(c.find_allocation(req), reference_find(c, req, all));
    std::vector<bool> allowed(c.node_count());
    for (std::size_t i = 0; i < allowed.size(); ++i) allowed[i] = rng.uniform() < 0.6;
    const std::function<bool(NodeId)> pred = [&allowed](NodeId id) {
      return static_cast<bool>(allowed[id]);
    };
    expect_same(c.find_allocation_if(req, pred), reference_find(c, req, pred));
  }
}

void run_random_sequence(const ClusterSpec& spec, std::uint64_t seed) {
  Cluster c(spec);
  Rng rng(seed);
  std::vector<Allocation> live;
  check_all_probes(c, rng);
  for (int step = 0; step < 400; ++step) {
    const auto op = rng.uniform_int(0, 9);
    if (op <= 4) {
      if (auto alloc = c.find_allocation(random_request(rng))) {
        c.claim(*alloc);
        live.push_back(std::move(*alloc));
      }
    } else if (op <= 7) {
      if (!live.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        c.release(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else {
      const auto node = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.node_count()) - 1));
      if (op == 8) c.set_node_down(node);
      else c.set_node_up(node);
    }
    check_all_probes(c, rng);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " of seed " << seed;
      return;
    }
  }
}

TEST(PlacementIndex, MatchesLinearScanOnHeterogeneousCluster) {
  for (std::uint64_t seed = 1; seed <= 20 && !HasFailure(); ++seed)
    run_random_sequence(heterogeneous_cwsi_cluster(4), seed);
}

TEST(PlacementIndex, MatchesLinearScanWithFractionalCores) {
  for (std::uint64_t seed = 1; seed <= 20 && !HasFailure(); ++seed)
    run_random_sequence(fractional_cluster(), seed);
}

TEST(PlacementIndex, ZeroNodesIsAnEmptyAllocation) {
  Cluster c(heterogeneous_cwsi_cluster(2));
  wf::Resources req;
  req.nodes = 0;
  req.cores_per_node = 1000;  // fits nowhere; irrelevant when nothing is asked
  const auto alloc = c.find_allocation(req);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_TRUE(alloc->empty());
}

TEST(PlacementIndex, ZeroCoresWalksPastFullNodes) {
  // With cores_per_node == 0 the free-core early exit never fires, so the
  // walk must reach a node with no free cores left that still has a GPU.
  Cluster c(homogeneous_cluster(3, 4, gib(8), 1.0, 1));
  wf::Resources cores_only;
  cores_only.cores_per_node = 4;
  c.claim(*c.find_allocation(cores_only));  // node 0: no cores, its GPU free
  wf::Resources gpu_only;
  gpu_only.cores_per_node = 0;
  gpu_only.gpus_per_node = 1;
  gpu_only.nodes = 2;
  auto alloc = c.find_allocation(gpu_only);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->claims[0].node, 1u);  // most free cores first
  EXPECT_EQ(alloc->claims[1].node, 2u);
  c.claim(*alloc);
  EXPECT_FALSE(c.find_allocation(gpu_only).has_value());
  gpu_only.nodes = 1;
  alloc = c.find_allocation(gpu_only);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->claims[0].node, 0u);
}

TEST(PlacementIndex, NegativeNodeCountNeverFits) {
  Cluster c(homogeneous_cluster(2, 4, gib(8)));
  wf::Resources req;
  req.nodes = -1;
  EXPECT_FALSE(c.find_allocation(req).has_value());
}

TEST(PlacementIndex, CopiedClusterKeepsItsOwnIndex) {
  Cluster a(homogeneous_cluster(2, 4, gib(8)));
  wf::Resources req;
  req.cores_per_node = 3;
  a.claim(*a.find_allocation(req));  // builds a's index; node 0 has 1 core left
  Cluster b = a;
  b.claim(*b.find_allocation(req));  // node 1 in the copy only
  EXPECT_EQ(a.find_allocation(req)->claims[0].node, 1u);
  EXPECT_FALSE(b.find_allocation(req).has_value());
}

// --- ResourceManager: place() probes by job state ---

JobRequest cores_job(double cores, SimTime runtime) {
  JobRequest r;
  r.name = "j";
  r.resources.cores_per_node = cores;
  r.runtime = runtime;
  return r;
}

TEST(PlacementProbe, OnlyQueuedJobsCanBePlaced) {
  sim::Simulation sim;
  Cluster cl(homogeneous_cluster(1, 4, gib(16)));
  ResourceManager rm(sim, cl, std::make_unique<FifoScheduler>(),
                     ResourceManagerConfig{.model_io = false});
  const JobId running = rm.submit(cores_job(4, 100));
  const JobId cancelled = rm.submit(cores_job(4, 100));
  const JobId killed = rm.submit(cores_job(4, 100));
  sim.run_until(1.0);
  ASSERT_EQ(rm.job(running).state, JobState::Running);
  ASSERT_TRUE(rm.cancel(cancelled));
  ASSERT_TRUE(rm.kill(killed));

  SchedulingContext ctx(rm);
  EXPECT_FALSE(ctx.try_place(running));
  EXPECT_FALSE(ctx.try_place(cancelled));
  EXPECT_FALSE(ctx.try_place(killed));
  EXPECT_FALSE(ctx.try_place(0));
  EXPECT_FALSE(ctx.try_place(killed + 1));
  EXPECT_FALSE(ctx.try_place(1000));
  EXPECT_EQ(rm.queued_count(), 0u);

  // A queued job is placed once, then is no longer placeable.
  ASSERT_TRUE(rm.kill(running));
  const JobId fresh = rm.submit(cores_job(2, 10));
  EXPECT_TRUE(ctx.try_place(fresh));
  EXPECT_EQ(rm.job(fresh).state, JobState::Running);
  EXPECT_FALSE(ctx.try_place(fresh));
  EXPECT_EQ(rm.queued_count(), 0u);
  sim.run();
  EXPECT_EQ(rm.job(fresh).state, JobState::Completed);
  EXPECT_FALSE(ctx.try_place(fresh));
  EXPECT_THROW(rm.job(0), std::out_of_range);
  EXPECT_THROW(rm.job(fresh + 1), std::out_of_range);
}

TEST(PlacementProbe, FailedJobCannotBePlaced) {
  sim::Simulation sim;
  Cluster cl(homogeneous_cluster(1, 4, gib(16)));
  ResourceManager rm(sim, cl, std::make_unique<FifoScheduler>(),
                     ResourceManagerConfig{.model_io = false});
  const JobId id = rm.submit(cores_job(4, 100));
  sim.run_until(1.0);
  rm.fail_node(0);
  ASSERT_EQ(rm.job(id).state, JobState::Failed);
  SchedulingContext ctx(rm);
  EXPECT_FALSE(ctx.try_place(id));
}

}  // namespace
}  // namespace hhc::cluster

namespace hhc::entk {
namespace {

TEST(EntkQueues, ResubmissionGoesToTheHeadOfTheQueue) {
  // One task per node, scheduled every 5 s. Node 0 dies at t=52 while ten
  // tasks still wait to be scheduled; its victim must be scheduled next,
  // behind only the task whose scheduling was already in flight.
  sim::Simulation sim;
  cluster::Cluster pilot(cluster::homogeneous_cluster(4, 4, gib(16)));
  EntkConfig cfg;
  cfg.scheduling_rate = 0.2;
  cfg.launching_rate = 1000;
  cfg.bootstrap_overhead = 0;
  AppManager app(sim, pilot, cfg, Rng(1));
  PipelineDesc p;
  p.name = "p";
  StageDesc s;
  s.name = "s0";
  for (int i = 0; i < 20; ++i) {
    TaskDesc t;
    t.name = "t" + std::to_string(i);
    t.resources.cores_per_node = 4;
    t.runtime_min = t.runtime_max = 100;
    s.tasks.push_back(t);
  }
  p.stages.push_back(s);
  app.add_pipeline(p);
  constexpr SimTime kFail = 52.0;
  app.fail_node_at(kFail, 0);
  const RunReport r = app.run();
  EXPECT_EQ(r.tasks_completed, 20u);
  ASSERT_EQ(r.resubmissions, 1u);

  const auto& recs = app.task_records();
  const auto victim = std::find_if(recs.begin(), recs.end(),
                                   [](const TaskRecord& t) { return t.attempts == 2; });
  ASSERT_NE(victim, recs.end());
  EXPECT_GT(victim->schedule_time, kFail);
  std::size_t ahead = 0;
  for (const auto& t : recs)
    if (&t != &*victim && t.schedule_time > kFail &&
        t.schedule_time < victim->schedule_time)
      ++ahead;
  EXPECT_EQ(ahead, 1u);
}

}  // namespace
}  // namespace hhc::entk
