// Optimized-workflow execution: running a rewritten DAG through the Toolkit
// with its RewriteLog must preserve per-constituent provenance, blame
// failures on the constituent that was executing, and stay bit-reproducible
// — while an identity log changes nothing at all.
#include <gtest/gtest.h>

#include "core/toolkit.hpp"
#include "obs/forensics/critical_path.hpp"
#include "resilience/chaos.hpp"
#include "workflow/opt/optimizer.hpp"

namespace hhc::core {
namespace {

namespace fx = obs::forensics;

wf::Workflow abc_chain() {
  wf::Workflow w("chain");
  wf::TaskId prev = wf::kInvalidTask;
  for (const char* name : {"a", "b", "c"}) {
    wf::TaskSpec t;
    t.name = name;
    t.kind = "step";
    t.base_runtime = 100.0;
    const wf::TaskId id = w.add_task(t);
    if (prev != wf::kInvalidTask) w.add_dependency(prev, id, mib(16));
    prev = id;
  }
  return w;
}

// Overhead-dominated costing: the whole chain fuses into one task.
wf::opt::OptimizeResult fuse_chain(const wf::Workflow& w) {
  wf::opt::StaticCostConfig cfg;
  cfg.dispatch_overhead = 400.0;
  cfg.stage_bandwidth = 0.0;
  const wf::opt::StaticCostModel model(cfg);
  wf::opt::OptimizeResult res = wf::opt::optimize(w, model);
  EXPECT_EQ(res.tasks_after(), 1u);
  return res;
}

RunOptions with_log(const wf::opt::RewriteLog& log) {
  RunOptions options;
  options.rewrites = &log;
  return options;
}

TEST(OptToolkit, IdentityLogIsByteIdenticalToPlainRun) {
  const wf::Workflow w = abc_chain();

  Toolkit plain;
  const auto env_p = plain.add_hpc("hpc", cluster::homogeneous_cluster(2, 8, gib(32)));
  const CompositeReport rp = plain.run(w, env_p);
  ASSERT_TRUE(rp.success) << rp.error;

  Toolkit logged;
  const auto env_l = logged.add_hpc("hpc", cluster::homogeneous_cluster(2, 8, gib(32)));
  const wf::opt::RewriteLog identity(w);
  const CompositeReport rl = logged.run(w, env_l, with_log(identity));
  ASSERT_TRUE(rl.success) << rl.error;

  EXPECT_EQ(rl.makespan, rp.makespan);
  EXPECT_EQ(rl.fused_tasks_run, 0u);
  EXPECT_EQ(logged.provenance().csv(), plain.provenance().csv());
  EXPECT_EQ(fx::path_csv(fx::critical_path(logged.ledger())),
            fx::path_csv(fx::critical_path(plain.ledger())));
}

TEST(OptToolkit, RejectsLogForDifferentWorkflow) {
  const wf::Workflow w = abc_chain();
  const wf::opt::OptimizeResult opt = fuse_chain(w);
  Toolkit tk;
  const auto env = tk.add_hpc("hpc", cluster::homogeneous_cluster(2, 8, gib(32)));
  // The log describes the 1-task optimized DAG, not the 3-task original.
  EXPECT_THROW(tk.run(w, env, with_log(opt.log)), std::invalid_argument);
}

TEST(OptToolkit, FusedRunEmitsPerConstituentProvenance) {
  const wf::Workflow w = abc_chain();
  const wf::opt::OptimizeResult opt = fuse_chain(w);

  Toolkit tk;
  const auto env = tk.add_hpc("hpc", cluster::homogeneous_cluster(2, 8, gib(32)));
  const CompositeReport r = tk.run(opt.workflow, env, with_log(opt.log));
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.fused_tasks_run, 1u);
  EXPECT_EQ(r.constituents_completed, 3u);
  EXPECT_EQ(r.constituent_failures, 0u);

  // One record per ORIGINAL task, tiling the fused attempt's interval.
  const auto& records = tk.provenance().records();
  ASSERT_EQ(records.size(), 3u);
  const fx::AttemptRecord& win =
      tk.ledger().attempt(tk.ledger().winner_of(0));
  EXPECT_EQ(records[0].task_name, "a");
  EXPECT_EQ(records[1].task_name, "b");
  EXPECT_EQ(records[2].task_name, "c");
  EXPECT_DOUBLE_EQ(records[0].start_time, win.started);
  EXPECT_DOUBLE_EQ(records[2].finish_time, win.finished);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(records[i].failed);
    EXPECT_EQ(records[i].kind, "step");
    EXPECT_EQ(records[i].environment, "hpc");
    if (i > 0) {
      EXPECT_DOUBLE_EQ(records[i].start_time, records[i - 1].finish_time);
    }
  }
  // Equal base runtimes split the interval into equal thirds.
  EXPECT_NEAR(records[0].runtime(), (win.finished - win.started) / 3.0, 1e-9);
}

TEST(OptToolkit, ConstituentBlameOnMidRunFailure) {
  ToolkitConfig cfg;
  cfg.resilience.static_task_retries = 3;
  Toolkit tk(cfg);
  const auto env = tk.add_hpc("hpc", cluster::homogeneous_cluster(1, 8, gib(32)));

  resilience::ChaosConfig ccfg;
  resilience::ChaosEvent crash;
  crash.time = 50.0;  // mid-constituent-'a' of the 300 s fused attempt
  crash.kind = resilience::ChaosKind::NodeCrash;
  crash.env = env;
  crash.node = 0;
  crash.duration = 120.0;
  ccfg.scheduled = {crash};
  resilience::ChaosEngine chaos(ccfg);
  tk.attach_chaos(&chaos);

  const wf::Workflow w = abc_chain();
  const wf::opt::OptimizeResult opt = fuse_chain(w);
  const CompositeReport r = tk.run(opt.workflow, env, with_log(opt.log));
  ASSERT_TRUE(r.success) << r.error;
  ASSERT_GE(r.task_failures, 1u);
  EXPECT_GE(r.constituent_failures, 1u);
  EXPECT_EQ(r.fused_tasks_run, 1u);

  // The failed attempt's ledger detail names the constituent that was
  // executing when the node died ('a': the crash lands in its first third).
  bool blamed = false;
  for (const auto& rec : tk.ledger().attempts())
    if (rec.outcome == fx::AttemptOutcome::Failed &&
        rec.detail.find("(constituent 'a')") != std::string::npos)
      blamed = true;
  EXPECT_TRUE(blamed);

  // The dead attempt leaves a failed record for 'a' only; the retry adds the
  // three completed ones. Waste accounting keeps the ledger contract.
  std::size_t failed_records = 0;
  for (const auto& p : tk.provenance().records())
    if (p.failed) {
      ++failed_records;
      EXPECT_EQ(p.task_name, "a");
    }
  EXPECT_EQ(failed_records, 1u);
  EXPECT_NEAR(tk.ledger().wasted_core_seconds(), r.wasted_core_seconds, 1e-6);
}

TEST(OptToolkit, ChaoticFusedRunIsBitReproducible) {
  const auto run_once = [](std::string* provenance_csv, std::string* path) {
    ToolkitConfig cfg;
    cfg.resilience.static_task_retries = 3;
    Toolkit tk(cfg);
    const auto env =
        tk.add_hpc("hpc", cluster::homogeneous_cluster(1, 8, gib(32)));
    resilience::ChaosConfig ccfg;
    resilience::ChaosEvent crash;
    crash.time = 50.0;
    crash.kind = resilience::ChaosKind::NodeCrash;
    crash.env = env;
    crash.node = 0;
    crash.duration = 120.0;
    ccfg.scheduled = {crash};
    resilience::ChaosEngine chaos(ccfg);
    tk.attach_chaos(&chaos);
    const wf::Workflow w = abc_chain();
    const wf::opt::OptimizeResult opt = fuse_chain(w);
    const CompositeReport r = tk.run(opt.workflow, env, with_log(opt.log));
    ASSERT_TRUE(r.success) << r.error;
    *provenance_csv = tk.provenance().csv();
    *path = fx::path_csv(fx::critical_path(tk.ledger()));
  };
  std::string prov1, path1, prov2, path2;
  run_once(&prov1, &path1);
  run_once(&prov2, &path2);
  EXPECT_EQ(prov1, prov2);
  EXPECT_EQ(path1, path2);
}

}  // namespace
}  // namespace hhc::core
