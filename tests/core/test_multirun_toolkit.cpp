// Re-entrant multi-run execution: any number of start_run() federated runs
// share one simulation, one broker and one fabric, each settling through its
// own done callback with per-run accounting. This is the substrate the
// multi-tenant service (src/service/) is built on.
#include "core/toolkit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "resilience/chaos.hpp"
#include "workflow/generators.hpp"
#include "workflow/opt/rewrite.hpp"

namespace hhc::core {
namespace {

struct Harness {
  std::unique_ptr<Toolkit> toolkit;
  std::unique_ptr<federation::Broker> broker;
};

Harness make_harness() {
  Harness h;
  h.toolkit = std::make_unique<Toolkit>();
  (void)h.toolkit->add_hpc("alpha", cluster::homogeneous_cluster(2, 16, gib(64)));
  (void)h.toolkit->add_hpc("beta", cluster::homogeneous_cluster(2, 16, gib(64)));
  federation::BrokerConfig bc;
  bc.policy = "heft-sites";
  h.broker = std::make_unique<federation::Broker>(bc);
  h.broker->add_site(h.toolkit->describe_environment(0));
  h.broker->add_site(h.toolkit->describe_environment(1));
  return h;
}

std::size_t env_tasks(const CompositeReport& r) {
  std::size_t n = 0;
  for (const EnvironmentReport& e : r.environments) n += e.tasks_run;
  return n;
}

TEST(ToolkitMultiRun, ConcurrentStartRunsSettleIndependently) {
  Harness h = make_harness();
  const wf::Workflow w1 = wf::make_chain(5, Rng(1));
  const wf::Workflow w2 = wf::make_fork_join(6, Rng(2));

  std::optional<CompositeReport> r1, r2;
  h.toolkit->start_run(w1, *h.broker, {},
                       [&](const CompositeReport& r) { r1 = r; });
  // The second run arrives while the first is mid-flight: both share the
  // broker's sites, so its placement sees the first run's backlog.
  h.toolkit->simulation().schedule_at(50.0, [&]() {
    h.toolkit->start_run(w2, *h.broker, {},
                         [&](const CompositeReport& r) { r2 = r; });
  });
  EXPECT_EQ(h.toolkit->active_run_count(), 1u);

  h.toolkit->simulation().run();

  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE(r1->success) << r1->error;
  EXPECT_TRUE(r2->success) << r2->error;
  EXPECT_EQ(r1->tasks, w1.task_count());
  EXPECT_EQ(r2->tasks, w2.task_count());
  // Per-run environment accounting: each report tags exactly its own tasks,
  // even though both runs executed interleaved on the same clusters.
  EXPECT_EQ(env_tasks(*r1), w1.task_count());
  EXPECT_EQ(env_tasks(*r2), w2.task_count());
  EXPECT_GT(r1->makespan, 0.0);
  EXPECT_GT(r2->makespan, 0.0);
  // Everything released: no active runs anywhere.
  EXPECT_EQ(h.toolkit->active_run_count(), 0u);
  EXPECT_EQ(h.broker->active_runs(), 0u);
}

TEST(ToolkitMultiRun, StaggeredRunMeasuresMakespanFromItsOwnStart) {
  Harness h = make_harness();
  const wf::Workflow w = wf::make_chain(3, Rng(3));
  std::optional<CompositeReport> early, late;
  h.toolkit->start_run(w, *h.broker, {},
                       [&](const CompositeReport& r) { early = r; });
  h.toolkit->simulation().schedule_at(1000.0, [&]() {
    h.toolkit->start_run(w, *h.broker, {},
                         [&](const CompositeReport& r) { late = r; });
  });
  h.toolkit->simulation().run();
  ASSERT_TRUE(early.has_value());
  ASSERT_TRUE(late.has_value());
  // The late run's makespan is relative to its arrival at t=1000, not to
  // simulation time zero — a late submission is not penalised by the clock.
  EXPECT_LT(late->makespan, 1000.0);
  EXPECT_GT(late->makespan, 0.0);
}

TEST(ToolkitMultiRun, SynchronousRunStillWorksAfterAsyncRuns) {
  Harness h = make_harness();
  const wf::Workflow wa = wf::make_diamond(Rng(4));
  std::optional<CompositeReport> ra;
  h.toolkit->start_run(wa, *h.broker, {},
                       [&](const CompositeReport& r) { ra = r; });
  h.toolkit->simulation().run();
  ASSERT_TRUE(ra.has_value());
  EXPECT_TRUE(ra->success);

  // The classic blocking overload keeps working on the same toolkit.
  const wf::Workflow wb = wf::make_montage_like(8, Rng(5));
  const CompositeReport rb = h.toolkit->run(wb, *h.broker);
  EXPECT_TRUE(rb.success) << rb.error;
  EXPECT_EQ(rb.tasks, wb.task_count());
  EXPECT_EQ(h.broker->active_runs(), 0u);
}

TEST(ToolkitMultiRun, FailUnsettledRunsDeliversDeadlockReports) {
  Harness h = make_harness();
  const wf::Workflow w = wf::make_chain(4, Rng(6));
  std::optional<CompositeReport> r;
  h.toolkit->start_run(w, *h.broker, {},
                       [&](const CompositeReport& rep) { r = rep; });
  // The caller never drives the simulation: from the service's perspective
  // the event queue drained with tasks still pending. fail_unsettled_runs
  // settles the run as a deadlock instead of leaving its callback parked.
  EXPECT_EQ(h.toolkit->fail_unsettled_runs(), 1u);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->error.find("deadlock"), std::string::npos) << r->error;
  EXPECT_EQ(h.toolkit->active_run_count(), 0u);
  // Idempotent: nothing left to settle.
  EXPECT_EQ(h.toolkit->fail_unsettled_runs(), 0u);
}

TEST(ToolkitMultiRun, EmptyWorkflowSettlesThroughTheEventLoop) {
  Harness h = make_harness();
  const wf::Workflow w("empty");
  std::optional<CompositeReport> r;
  h.toolkit->start_run(w, *h.broker, {},
                       [&](const CompositeReport& rep) { r = rep; });
  EXPECT_FALSE(r.has_value());  // delivery is always asynchronous
  h.toolkit->simulation().run();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->success);
  EXPECT_EQ(r->tasks, 0u);
}

// Sync/async parity: run(w, broker) and start_run + simulation().run() share
// one launch path, so the same workflow on two fresh harnesses settles to
// the same schedule — including a chaos node crash and its re-brokered
// retries (the async caller arms chaos itself, as the service does).
void expect_same_schedule(const CompositeReport& a, const CompositeReport& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_EQ(a.task_resubmissions, b.task_resubmissions);
  EXPECT_EQ(a.tasks_rerouted, b.tasks_rerouted);
  ASSERT_EQ(a.environments.size(), b.environments.size());
  for (std::size_t e = 0; e < a.environments.size(); ++e) {
    EXPECT_EQ(a.environments[e].tasks_run, b.environments[e].tasks_run);
    EXPECT_EQ(a.environments[e].busy_core_seconds,
              b.environments[e].busy_core_seconds);
  }
}

resilience::ChaosConfig one_node_crash() {
  resilience::ChaosConfig cfg;
  resilience::ChaosEvent crash;
  crash.time = 120.0;
  crash.kind = resilience::ChaosKind::NodeCrash;
  crash.env = 0;
  crash.node = 0;
  crash.duration = 300.0;
  cfg.scheduled = {crash};
  return cfg;
}

TEST(ToolkitMultiRun, SyncAndAsyncLaunchesProduceTheSameSchedule) {
  const wf::Workflow w = wf::make_montage_like(10, Rng(11));

  Harness sync = make_harness();
  resilience::ChaosEngine sync_chaos(one_node_crash());
  sync.toolkit->attach_chaos(&sync_chaos);
  const CompositeReport rs = sync.toolkit->run(w, *sync.broker);

  Harness async = make_harness();
  resilience::ChaosEngine async_chaos(one_node_crash());
  async.toolkit->attach_chaos(&async_chaos);
  async.toolkit->arm_chaos();
  std::optional<CompositeReport> ra;
  async.toolkit->start_run(w, *async.broker, {},
                           [&](const CompositeReport& r) { ra = r; });
  async.toolkit->simulation().run();

  ASSERT_TRUE(ra.has_value());
  EXPECT_TRUE(rs.success) << rs.error;
  EXPECT_EQ(sync_chaos.injected(resilience::ChaosKind::NodeCrash), 1u);
  EXPECT_EQ(async_chaos.injected(resilience::ChaosKind::NodeCrash), 1u);
  EXPECT_GE(rs.task_resubmissions, 1u);
  expect_same_schedule(rs, *ra);
}

TEST(ToolkitMultiRun, IdentityLogThroughStartRunIsByteIdenticalToNoLog) {
  const wf::Workflow w = wf::make_montage_like(8, Rng(12));
  const wf::opt::RewriteLog identity(w);

  std::optional<CompositeReport> plain, logged;
  Harness hp = make_harness();
  hp.toolkit->start_run(w, *hp.broker, {},
                        [&](const CompositeReport& r) { plain = r; });
  hp.toolkit->simulation().run();

  Harness hl = make_harness();
  RunOptions options;
  options.rewrites = &identity;
  hl.toolkit->start_run(w, *hl.broker, options,
                        [&](const CompositeReport& r) { logged = r; });
  hl.toolkit->simulation().run();

  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(logged.has_value());
  EXPECT_TRUE(logged->success) << logged->error;
  EXPECT_EQ(logged->fused_tasks_run, 0u);
  expect_same_schedule(*plain, *logged);
  EXPECT_EQ(hl.toolkit->provenance().csv(), hp.toolkit->provenance().csv());
}

}  // namespace
}  // namespace hhc::core
