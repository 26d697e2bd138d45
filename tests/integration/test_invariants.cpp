// Property-based invariant suites: parameterized sweeps over schedulers,
// workflow shapes and seeds, asserting structural invariants that must hold
// for ANY configuration — conservation of tasks, capacity bounds, causal
// ordering, determinism, clean release of resources.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <ostream>

#include "core/toolkit.hpp"
#include "cws/strategies.hpp"
#include "cws/wms.hpp"
#include "entk/app_manager.hpp"
#include "entk/exaam.hpp"
#include "obs/forensics/critical_path.hpp"
#include "workflow/analysis.hpp"
#include "workflow/generators.hpp"

namespace hhc {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: every strategy x every workflow shape x seeds.
// ---------------------------------------------------------------------------

struct StrategyShapeCase {
  std::string strategy;
  std::string shape;
  std::uint64_t seed;
};

// Without a PrintTo gtest prints a param as its raw bytes, and ctest bakes
// that dump into the test name: a std::string field puts a heap pointer
// there, so the name would differ from build to build.
void PrintTo(const StrategyShapeCase& c, std::ostream* os) {
  *os << '{' << c.strategy << ", " << c.shape << ", seed " << c.seed << '}';
}

std::string case_name(const ::testing::TestParamInfo<StrategyShapeCase>& info) {
  std::string s = info.param.strategy + "_" + info.param.shape + "_" +
                  std::to_string(info.param.seed);
  for (auto& c : s)
    if (c == '-') c = '_';
  return s;
}

wf::Workflow make_shape(const std::string& shape, std::uint64_t seed) {
  wf::GenParams p;
  p.cores_per_task = 4;
  Rng rng(seed);
  if (shape == "chain") return wf::make_chain(12, rng, p);
  if (shape == "forkjoin") return wf::make_fork_join(20, rng, p);
  if (shape == "scattergather") return wf::make_scatter_gather(3, 10, rng, p);
  if (shape == "montage") return wf::make_montage_like(12, rng, p);
  if (shape == "lanes") return wf::make_pipeline_lanes(6, 4, rng, p);
  return wf::make_random_layered(6, 10, rng, p);
}

class StrategyInvariants : public ::testing::TestWithParam<StrategyShapeCase> {};

TEST_P(StrategyInvariants, ExecutionIsSoundCompleteAndCausal) {
  const auto& param = GetParam();
  sim::Simulation sim;
  cluster::Cluster cl(cluster::heterogeneous_cwsi_cluster(3));
  cws::WorkflowRegistry registry;
  cws::ProvenanceStore provenance;
  cws::LotaruPredictor predictor;
  cluster::ResourceManager rm(
      sim, cl,
      cws::make_strategy(param.strategy, registry, predictor, provenance),
      cluster::ResourceManagerConfig{.model_io = true});
  cws::WorkflowEngine engine(sim, rm, &registry, &provenance, &predictor);

  const wf::Workflow w = make_shape(param.shape, param.seed);
  const auto result = engine.run_to_completion(w);

  // Completeness: every task ran exactly once (no failures injected).
  ASSERT_TRUE(result.success);
  EXPECT_EQ(provenance.size(), w.task_count());

  // Causality: every task started at or after all predecessors finished.
  std::map<wf::TaskId, const cws::TaskProvenance*> by_task;
  for (const auto& rec : provenance.records()) by_task[rec.task_id] = &rec;
  for (wf::TaskId t = 0; t < w.task_count(); ++t) {
    ASSERT_TRUE(by_task.count(t));
    for (wf::TaskId p : w.predecessors(t))
      EXPECT_GE(by_task[t]->start_time, by_task[p]->finish_time - 1e-9)
          << "task " << t << " started before predecessor " << p << " finished";
  }

  // Lower bound: makespan >= critical path at the fastest node speed.
  const double fastest = 1.6;
  EXPECT_GE(result.makespan() + 1e-6, wf::critical_path(w).length / fastest);

  // Clean release: nothing still allocated after the run.
  EXPECT_DOUBLE_EQ(cl.used_cores(), 0.0);
  EXPECT_EQ(cl.used_gpus(), 0);
  EXPECT_EQ(rm.queued_count(), 0u);
  EXPECT_EQ(rm.running_count(), 0u);

  // Sanity on provenance timestamps.
  for (const auto& rec : provenance.records()) {
    EXPECT_LE(rec.submit_time, rec.start_time + 1e-9);
    EXPECT_LE(rec.start_time, rec.finish_time);
    EXPECT_GT(rec.node_speed, 0.0);
  }
}

std::vector<StrategyShapeCase> all_strategy_cases() {
  std::vector<StrategyShapeCase> cases;
  for (const char* strategy : {"fifo", "fifo-fit", "easy-backfill", "cws-rank",
                               "cws-filesize", "cws-heft", "cws-tarema"})
    for (const char* shape :
         {"chain", "forkjoin", "scattergather", "montage", "lanes", "random"})
      for (std::uint64_t seed : {1u, 2u})
        cases.push_back({strategy, shape, seed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, StrategyInvariants,
                         ::testing::ValuesIn(all_strategy_cases()), case_name);

// ---------------------------------------------------------------------------
// Sweep 2: determinism of every strategy under replay.
// ---------------------------------------------------------------------------

class StrategyDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(StrategyDeterminism, IdenticalSeedsIdenticalMakespans) {
  auto once = [&](std::uint64_t seed) {
    sim::Simulation sim;
    cluster::Cluster cl(cluster::heterogeneous_cwsi_cluster(3));
    cws::WorkflowRegistry registry;
    cws::ProvenanceStore provenance;
    cws::OnlineMeanPredictor predictor;
    cluster::ResourceManager rm(
        sim, cl, cws::make_strategy(GetParam(), registry, predictor, provenance));
    cws::WorkflowEngine engine(sim, rm, &registry, &provenance, &predictor);
    return engine.run_to_completion(make_shape("random", seed)).makespan();
  };
  EXPECT_EQ(once(7), once(7));
  EXPECT_NE(once(7), once(8));  // and seeds actually matter
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyDeterminism,
                         ::testing::Values("fifo", "fifo-fit", "easy-backfill",
                                           "cws-rank", "cws-filesize", "cws-heft",
                                           "cws-tarema"),
                         [](const auto& param_info) {
                           std::string s = param_info.param;
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// ---------------------------------------------------------------------------
// Sweep 3: EnTK capacity and accounting invariants across pilot shapes.
// ---------------------------------------------------------------------------

// Printed as raw bytes (see StrategyShapeCase): every field is 8 bytes wide,
// so the struct has no padding whose stale contents could reach the name.
struct PilotCase {
  std::size_t nodes;
  std::size_t tasks;
  std::size_t nodes_per_task;
};

class EntkInvariants : public ::testing::TestWithParam<PilotCase> {};

TEST_P(EntkInvariants, ConcurrencyAndAccountingBounds) {
  const auto& param = GetParam();
  sim::Simulation sim;
  cluster::Cluster pilot(cluster::frontier_like(param.nodes));
  entk::EntkConfig cfg;
  cfg.scheduling_rate = 500;
  cfg.launching_rate = 100;
  cfg.bootstrap_overhead = 10;
  entk::AppManager app(sim, pilot, cfg, Rng(5));

  entk::PipelineDesc p;
  entk::StageDesc s;
  for (std::size_t i = 0; i < param.tasks; ++i) {
    entk::TaskDesc t;
    t.name = "t" + std::to_string(i);
    t.kind = "t";
    t.resources.nodes = param.nodes_per_task;
    t.resources.cores_per_node = 56;
    t.resources.gpus_per_node = 8;
    t.runtime_min = 100;
    t.runtime_max = 300;
    s.tasks.push_back(t);
  }
  p.stages.push_back(s);
  app.add_pipeline(p);
  const entk::RunReport r = app.run();

  // Conservation: every task completed exactly once.
  EXPECT_EQ(r.tasks_completed, param.tasks);
  EXPECT_EQ(r.task_runtimes.count(), param.tasks);

  // Capacity: concurrency never exceeds floor(nodes / nodes_per_task).
  const double capacity = std::floor(static_cast<double>(param.nodes) /
                                     static_cast<double>(param.nodes_per_task));
  EXPECT_LE(r.executing_series.max_value(), capacity + 1e-9);

  // Accounting: utilization in (0, 1]; TTX <= job runtime.
  EXPECT_GT(r.core_utilization, 0.0);
  EXPECT_LE(r.core_utilization, 1.0 + 1e-9);
  EXPECT_LE(r.ttx, r.job_runtime() + 1e-9);

  // Integral consistency: core-seconds equals sum of task core-seconds.
  double expected_core_seconds = 0;
  for (double rt : r.task_runtimes.values())
    expected_core_seconds += rt * 56.0 * param.nodes_per_task;
  EXPECT_NEAR(r.cores_series.integral(0, r.job_end), expected_core_seconds,
              expected_core_seconds * 1e-9 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    PilotShapes, EntkInvariants,
    ::testing::Values(PilotCase{16, 40, 1}, PilotCase{16, 40, 4},
                      PilotCase{64, 100, 8}, PilotCase{8, 30, 3},
                      PilotCase{32, 5, 16}),
    [](const auto& param_info) {
      return "n" + std::to_string(param_info.param.nodes) + "_t" +
             std::to_string(param_info.param.tasks) + "_k" +
             std::to_string(param_info.param.nodes_per_task);
    });

// ---------------------------------------------------------------------------
// Sweep 4: forensics closure — for ANY shape, seed and chaos level, the
// critical path tiles the makespan (closure error ~ 0) and the ledger's
// waste/busy accounting mirrors the composite report exactly.
// ---------------------------------------------------------------------------

struct ShapeChaosCase {
  std::string shape;
  std::uint64_t seed;
  bool chaotic;
};

void PrintTo(const ShapeChaosCase& c, std::ostream* os) {
  *os << '{' << c.shape << ", seed " << c.seed << ", "
      << (c.chaotic ? "chaotic" : "calm") << '}';
}

class ForensicsClosure : public ::testing::TestWithParam<ShapeChaosCase> {};

TEST_P(ForensicsClosure, CriticalPathSumsToMakespanAndAccountingMirrors) {
  const auto& param = GetParam();
  core::ToolkitConfig cfg;
  cfg.seed = param.seed;
  cfg.resilience.static_task_retries = 5;
  core::Toolkit tk(cfg);
  const auto hpc =
      tk.add_hpc("hpc", cluster::homogeneous_cluster(4, 16, gib(64)));
  const auto cloud = tk.add_cloud("cloud", 8, 8.0, gib(32), 0.9, 45.0);

  resilience::ChaosEngine chaos([&] {
    resilience::ChaosConfig ccfg;
    ccfg.seed = param.seed * 31 + 7;
    if (param.chaotic) {
      ccfg.horizon = 4000.0;
      ccfg.node_mtbf = 1200.0;
      ccfg.task.straggler_rate = 0.1;
    }
    return ccfg;
  }());
  if (param.chaotic) tk.attach_chaos(&chaos);

  const wf::Workflow w = make_shape(param.shape, param.seed);
  std::vector<core::EnvironmentId> assignment;
  for (wf::TaskId t = 0; t < w.task_count(); ++t)
    assignment.push_back(t % 3 == 2 ? cloud : hpc);
  const core::CompositeReport r = tk.run(w, assignment);

  // Closure holds whether or not the run succeeded: the walk attributes
  // every second between run start and the last settled attempt's finish.
  const auto blame = obs::forensics::critical_path(tk.ledger());
  EXPECT_LT(blame.closure_error(), 1e-6);
  EXPECT_NEAR(blame.makespan, r.makespan, 1e-9);
  SimTime cursor = blame.run_start;
  for (const auto& s : blame.segments) {
    EXPECT_NEAR(s.begin, cursor, 1e-9);
    EXPECT_GE(s.end, s.begin - 1e-12);
    cursor = s.end;
  }
  EXPECT_NEAR(cursor, blame.run_end, 1e-9);

  // Accounting contract, on both the waste and the busy side.
  EXPECT_NEAR(tk.ledger().wasted_core_seconds(), r.wasted_core_seconds, 1e-6);
  for (const auto& env : r.environments)
    EXPECT_NEAR(tk.ledger().busy_core_seconds(env.name), env.busy_core_seconds,
                1e-6)
        << env.name;
}

std::vector<ShapeChaosCase> forensics_cases() {
  std::vector<ShapeChaosCase> cases;
  for (const char* shape :
       {"chain", "forkjoin", "scattergather", "montage", "lanes", "random"})
    for (bool chaotic : {false, true})
      cases.push_back({shape, 3u, chaotic});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ShapesCalmAndChaotic, ForensicsClosure,
                         ::testing::ValuesIn(forensics_cases()),
                         [](const auto& param_info) {
                           return param_info.param.shape +
                                  (param_info.param.chaotic ? "_chaotic"
                                                            : "_calm");
                         });

// ---------------------------------------------------------------------------
// Sweep 5: RNG distribution properties across seeds (statistical sanity).
// ---------------------------------------------------------------------------

class RngDistributions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDistributions, MomentsWithinTolerance) {
  Rng rng(GetParam());
  OnlineStats uniform, expo;
  for (int i = 0; i < 50000; ++i) {
    uniform.add(rng.uniform());
    expo.add(rng.exponential(2.0));
  }
  EXPECT_NEAR(uniform.mean(), 0.5, 0.02);
  EXPECT_NEAR(uniform.variance(), 1.0 / 12.0, 0.01);
  EXPECT_NEAR(expo.mean(), 0.5, 0.02);
  EXPECT_NEAR(expo.variance(), 0.25, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDistributions,
                         ::testing::Values(1u, 42u, 1337u, 0xdeadbeefu));

// ---------------------------------------------------------------------------
// Sweep 6: generated workflows are valid DAGs for any shape and seed.
// ---------------------------------------------------------------------------

// gtest prints this param as its raw bytes, and ctest bakes that dump into the
// test name. A fixed buffer keeps those bytes the same on every build; a
// std::string would put its heap pointer into the name.
struct ShapeSeed {
  std::array<char, 32> shape{};
  std::uint64_t seed = 0;
};

class GeneratorProperties : public ::testing::TestWithParam<ShapeSeed> {};

TEST_P(GeneratorProperties, StructurallySound) {
  const wf::Workflow w = make_shape(GetParam().shape.data(), GetParam().seed);
  ASSERT_NO_THROW(w.validate());
  // Ranks decrease along every edge; levels increase.
  const auto rank = wf::upward_rank(w);
  const auto levels = wf::task_levels(w);
  for (const auto& e : w.edges()) {
    EXPECT_GT(rank[e.from], rank[e.to]);
    EXPECT_LT(levels[e.from], levels[e.to]);
  }
  // Critical path length is within [max task runtime, total work].
  const auto cp = wf::critical_path(w);
  double max_rt = 0;
  for (wf::TaskId t = 0; t < w.task_count(); ++t)
    max_rt = std::max(max_rt, w.task(t).base_runtime);
  EXPECT_GE(cp.length, max_rt);
  EXPECT_LE(cp.length, wf::total_work(w) + 1e-9);
}

std::vector<ShapeSeed> generator_cases() {
  std::vector<ShapeSeed> cases;
  for (const char* shape :
       {"chain", "forkjoin", "scattergather", "montage", "lanes", "random"})
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      ShapeSeed c;
      std::strncpy(c.shape.data(), shape, c.shape.size() - 1);
      c.seed = seed;
      cases.push_back(c);
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ShapesAndSeeds, GeneratorProperties,
                         ::testing::ValuesIn(generator_cases()),
                         [](const auto& param_info) {
                           return std::string(param_info.param.shape.data()) +
                                  "_" + std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace hhc
