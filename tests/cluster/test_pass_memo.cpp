// Differential tests for the ResourceManager's pass memo: an unfiltered
// try_place skips the probe when a request needing no more in any dimension
// already failed since capacity last grew. The reference scheduler places
// through try_place_if with an always-true predicate, which is never
// memoized, so it probes every queued job; both must start the same jobs at
// the same times on the same nodes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/resource_manager.hpp"
#include "cluster/schedulers.hpp"
#include "obs/prof/prof.hpp"
#include "support/rng.hpp"

namespace hhc::cluster {
namespace {

bool any_node(NodeId) { return true; }
bool even_node(NodeId id) { return id % 2 == 0; }

/// Full first-fit scan: probes every job of the pass-start queue.
class ReferenceFirstFit final : public Scheduler {
 public:
  std::string name() const override { return "reference-first-fit"; }
  void schedule(SchedulingContext& ctx) override {
    const std::vector<JobId> snapshot = ctx.queue();
    for (JobId id : snapshot) ctx.try_place_if(id, any_node);
  }
};

/// The CWS shape: a filtered attempt, then an unfiltered fallback. With
/// `memoized` the fallback goes through try_place; otherwise through an
/// always-true predicate.
class FilterThenFallback final : public Scheduler {
 public:
  explicit FilterThenFallback(bool memoized) : memoized_(memoized) {}
  std::string name() const override { return "filter-then-fallback"; }
  void schedule(SchedulingContext& ctx) override {
    const std::vector<JobId>& queue = ctx.queue();
    const std::size_t n = queue.size();
    for (std::size_t i = 0; i < n; ++i) {
      const JobId id = queue[i];
      if (ctx.try_place_if(id, even_node)) continue;
      if (memoized_) ctx.try_place(id);
      else ctx.try_place_if(id, any_node);
    }
  }

 private:
  bool memoized_;
};

/// Three node classes, so requests differ in cores, GPUs and memory and a
/// larger core count does not imply a larger GPU or memory need.
ClusterSpec mixed_cluster() {
  ClusterSpec spec;
  spec.name = "mixed";
  NodeClass a;
  a.name = "gpu-small";
  a.count = 3;
  a.cores = 8;
  a.gpus = 2;
  a.memory = gib(32);
  NodeClass b;
  b.name = "cpu-big";
  b.count = 3;
  b.cores = 16;
  b.gpus = 0;
  b.memory = gib(64);
  NodeClass c;
  c.name = "gpu-dense";
  c.count = 2;
  c.cores = 4;
  c.gpus = 4;
  c.memory = gib(16);
  spec.classes = {a, b, c};
  return spec;
}

/// Every input drawn up front, so the scheduler under test cannot shift the
/// random stream.
struct Scenario {
  struct Job {
    SimTime submit = 0.0;
    JobRequest request;
    bool kills_on_start = false;  ///< Start callback kills a running job.
  };
  struct Outage {
    SimTime at = 0.0;
    NodeId node = 0;
    SimTime repair_after = 0.0;
  };
  std::vector<Job> jobs;
  std::vector<Outage> outages;
};

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& values) {
  return values[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
}

Scenario draw_scenario(std::uint64_t seed, std::size_t node_count) {
  static const std::vector<int> kNodes = {1, 1, 1, 2, 3};
  static const std::vector<double> kCores = {0.5, 1, 2, 4, 6, 8, 12, 16};
  static const std::vector<int> kGpus = {0, 0, 0, 1, 2, 4};
  static const std::vector<double> kMemGib = {0, 2, 8, 16, 24, 48};
  Rng rng(seed);
  Scenario s;
  for (int i = 0; i < 120; ++i) {
    Scenario::Job job;
    job.submit = rng.uniform(0.0, 200.0);
    job.request.name = "j" + std::to_string(i);
    job.request.resources.nodes = pick(rng, kNodes);
    job.request.resources.cores_per_node = pick(rng, kCores);
    job.request.resources.gpus_per_node = pick(rng, kGpus);
    job.request.resources.memory_per_node = gib(pick(rng, kMemGib));
    job.request.runtime = rng.uniform(5.0, 60.0);
    job.kills_on_start = rng.uniform() < 0.1;
    s.jobs.push_back(job);
  }
  for (int i = 0; i < 6; ++i) {
    Scenario::Outage o;
    o.at = rng.uniform(0.0, 250.0);
    o.node = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
    o.repair_after = rng.uniform(5.0, 40.0);
    s.outages.push_back(o);
  }
  return s;
}

struct RunLog {
  std::vector<std::string> events;  ///< Starts and ends, in firing order.
  std::uint64_t probes = 0;         ///< cluster.place_probes (profiler on).
};

std::string describe_start(const JobRecord& rec) {
  std::string s = "start " + std::to_string(rec.id) + " @" +
                  std::to_string(rec.start_time) + " on";
  for (const NodeClaim& c : rec.allocation.claims) s += " " + std::to_string(c.node);
  return s;
}

RunLog run_scenario(const Scenario& s, std::unique_ptr<Scheduler> scheduler) {
  namespace prof = obs::prof;
  sim::Simulation sim;
  Cluster cluster(mixed_cluster());
  ResourceManager rm(sim, cluster, std::move(scheduler),
                     ResourceManagerConfig{.model_io = false});
  RunLog log;
  std::set<JobId> running;
  for (const Scenario::Job& job : s.jobs) {
    sim.schedule_at(job.submit, [&, job] {
      rm.submit(
          job.request,
          [&](const JobRecord& rec) {
            running.erase(rec.id);
            log.events.push_back("end " + std::to_string(rec.id) + " " +
                                 to_string(rec.state) + " @" +
                                 std::to_string(rec.finish_time));
          },
          [&, kills = job.kills_on_start](const JobRecord& rec) {
            log.events.push_back(describe_start(rec));
            running.insert(rec.id);
            // Frees capacity inside the scheduling pass that started `rec`.
            if (kills && *running.begin() != rec.id) rm.kill(*running.begin());
          });
    });
  }
  for (const Scenario::Outage& o : s.outages)
    sim.schedule_at(o.at, [&rm, o] { rm.fail_node(o.node, o.repair_after); });
  prof::reset();
  prof::set_enabled(true);
  sim.run();
  prof::set_enabled(false);
  log.probes = prof::counter_value("cluster.place_probes");
  prof::reset();
  return log;
}

void expect_same_schedule(const RunLog& got, const RunLog& want,
                          std::uint64_t seed) {
  ASSERT_EQ(got.events.size(), want.events.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.events.size(); ++i)
    ASSERT_EQ(got.events[i], want.events[i]) << "seed " << seed << ", event " << i;
}

TEST(PassMemo, FirstFitMatchesFullScan) {
  std::uint64_t memo_probes = 0, full_probes = 0;
  for (std::uint64_t seed = 1; seed <= 25 && !HasFailure(); ++seed) {
    const Scenario s = draw_scenario(seed, mixed_cluster().total_nodes());
    const RunLog memo = run_scenario(s, std::make_unique<FifoFitScheduler>());
    const RunLog full = run_scenario(s, std::make_unique<ReferenceFirstFit>());
    expect_same_schedule(memo, full, seed);
    memo_probes += memo.probes;
    full_probes += full.probes;
  }
  if (obs::prof::compiled()) {
    EXPECT_LT(memo_probes, full_probes);
  }
}

TEST(PassMemo, FilteredFailuresAreNotMemoized) {
  for (std::uint64_t seed = 101; seed <= 115 && !HasFailure(); ++seed) {
    const Scenario s = draw_scenario(seed, mixed_cluster().total_nodes());
    expect_same_schedule(
        run_scenario(s, std::make_unique<FilterThenFallback>(true)),
        run_scenario(s, std::make_unique<FilterThenFallback>(false)), seed);
  }
}

JobRequest shaped(int nodes, double cores, int gpus, Bytes memory,
                  SimTime runtime = 100) {
  JobRequest r;
  r.name = "j";
  r.resources.nodes = nodes;
  r.resources.cores_per_node = cores;
  r.resources.gpus_per_node = gpus;
  r.resources.memory_per_node = memory;
  r.runtime = runtime;
  return r;
}

TEST(PassMemo, LargerInOneDimensionOnlyIsStillProbed) {
  // Each pair: a request that fails on one 8-core / 1-GPU / 16 GiB node,
  // then one that needs more of something else but fits.
  struct Pair {
    JobRequest fails, fits;
  };
  const std::vector<Pair> pairs = {
      {shaped(1, 1, 2, gib(1)), shaped(1, 4, 0, gib(1))},   // GPUs
      {shaped(1, 1, 0, gib(32)), shaped(1, 4, 0, gib(1))},  // memory
      {shaped(2, 1, 0, gib(1)), shaped(1, 4, 1, gib(8))},   // nodes
      {shaped(1, 9, 0, gib(1)), shaped(1, 8, 1, gib(16))},  // cores
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    sim::Simulation sim;
    Cluster cl(homogeneous_cluster(1, 8, gib(16), 1.0, 1));
    ResourceManager rm(sim, cl, std::make_unique<FifoFitScheduler>(),
                       ResourceManagerConfig{.model_io = false});
    const JobId fails = rm.submit(pairs[i].fails);
    const JobId fits = rm.submit(pairs[i].fits);
    sim.run_until(1.0);
    EXPECT_EQ(rm.job(fails).state, JobState::Queued) << "pair " << i;
    EXPECT_EQ(rm.job(fits).state, JobState::Running) << "pair " << i;
  }
}

TEST(PassMemo, CapacityFreedMidPassIsSeenByLaterJobs) {
  // Two 4-core nodes: `a` fills node 0, `b` takes 3 cores of node 1. In the
  // next pass `x` (4 cores) fails, `y` (1 core) starts and its start callback
  // kills `a`, so `z` (4 cores, same shape as `x`) must start in that pass.
  sim::Simulation sim;
  Cluster cl(homogeneous_cluster(2, 4, gib(16)));
  ResourceManager rm(sim, cl, std::make_unique<FifoFitScheduler>(),
                     ResourceManagerConfig{.model_io = false});
  const JobId a = rm.submit(shaped(1, 4, 0, 0));
  rm.submit(shaped(1, 3, 0, 0));
  sim.run_until(0.5);
  ASSERT_EQ(rm.running_count(), 2u);
  sim.schedule_at(1.0, [&] {
    rm.submit(shaped(1, 4, 0, 0));
    rm.submit(shaped(1, 1, 0, 0), {}, [&](const JobRecord&) { rm.kill(a); });
    rm.submit(shaped(1, 4, 0, 0));
  });
  sim.run_until(1.5);
  const JobId x = a + 2, z = a + 4;
  EXPECT_EQ(rm.job(a).state, JobState::Cancelled);
  EXPECT_EQ(rm.job(x).state, JobState::Queued);  // probed before the kill
  ASSERT_EQ(rm.job(z).state, JobState::Running);
  EXPECT_EQ(rm.job(z).start_time, 1.0);
  EXPECT_EQ(rm.job(z).allocation.claims[0].node, 0u);
}

TEST(PassMemo, IdenticalBlockedJobsCostOneProbe) {
  if (!obs::prof::compiled()) GTEST_SKIP() << "profiler compiled out";
  namespace prof = obs::prof;
  sim::Simulation sim;
  Cluster cl(homogeneous_cluster(1, 4, gib(16)));
  ResourceManager rm(sim, cl, std::make_unique<FifoFitScheduler>(),
                     ResourceManagerConfig{.model_io = false});
  rm.submit(shaped(1, 4, 0, 0, 10));
  sim.run_until(1.0);
  for (int i = 0; i < 50; ++i) rm.submit(shaped(1, 2 + (i % 3), 0, 0, 10));
  prof::reset();
  prof::set_enabled(true);
  sim.run_until(2.0);  // one pass: the 2-core probe fails, the rest are skipped
  prof::set_enabled(false);
  EXPECT_EQ(prof::counter_value("cluster.place_probes"), 1u);
  EXPECT_EQ(rm.queued_count(), 50u);
  prof::reset();
  sim.run();
  EXPECT_EQ(rm.completed_jobs(), 51u);
}

}  // namespace
}  // namespace hhc::cluster
