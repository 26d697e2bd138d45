// Durable runs end-to-end: checkpoint policies driving snapshots from inside
// live runs, crash (abort_run) + resume() re-executing only the surviving
// frontier, forensics closure across the resume boundary, and the fabric
// staleness contract — resumed consumers pay the same transfers an
// uninterrupted run would, with no phantom cross_env_cache_hits.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/toolkit.hpp"
#include "obs/forensics/critical_path.hpp"
#include "workflow/generators.hpp"

namespace hhc::core {
namespace {

namespace fx = obs::forensics;

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

wf::TaskId add_task(wf::Workflow& w, const std::string& name, SimTime runtime,
                    double cores = 1.0) {
  wf::TaskSpec t;
  t.name = name;
  t.kind = "step";
  t.base_runtime = runtime;
  t.resources.cores_per_node = cores;
  return w.add_task(t);
}

// Serial chain with data on every edge, so checkpoints carry replicas.
wf::Workflow make_data_chain(std::size_t n, SimTime runtime = 20.0) {
  wf::Workflow w("chain");
  wf::TaskId prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const wf::TaskId t = add_task(w, "t" + std::to_string(i), runtime);
    if (i > 0) w.add_dependency(prev, t, mib(16));
    prev = t;
  }
  return w;
}

void expect_closure(const fx::BlameReport& blame, const CompositeReport& r) {
  EXPECT_LT(blame.closure_error(), 1e-6);
  EXPECT_NEAR(blame.makespan, r.makespan, 1e-9);
  SimTime cursor = blame.run_start;
  for (const auto& s : blame.segments) {
    EXPECT_NEAR(s.begin, cursor, 1e-9);
    cursor = s.end;
  }
  EXPECT_NEAR(cursor, blame.run_end, 1e-9);
}

TEST(DurableToolkit, EveryNCompletionsSnapshotsMidRun) {
  Harness h = make_harness();
  const wf::Workflow w = make_data_chain(6);

  std::vector<resilience::RunCheckpoint> taken;
  RunOptions options;
  options.checkpoints = resilience::CheckpointPolicy::every_completions(2);
  options.on_checkpoint = [&](const resilience::RunCheckpoint& c) {
    taken.push_back(c);
  };
  const CompositeReport r = h.toolkit->run(w, *h.broker, options);
  ASSERT_TRUE(r.success) << r.error;

  // Completions 2 and 4 trigger; the final completion settles the run before
  // another snapshot can fire.
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(r.checkpoints_taken, 2u);
  EXPECT_EQ(taken[0].sequence, 1u);
  EXPECT_EQ(taken[1].sequence, 2u);
  EXPECT_EQ(taken[0].completed_count(), 2u);
  EXPECT_EQ(taken[1].completed_count(), 4u);
  for (const auto& ck : taken) {
    EXPECT_NO_THROW(ck.validate_for(w));
    EXPECT_FALSE(ck.complete());
    EXPECT_GT(ck.busy_core_seconds, 0.0);
    // Completed producers with live out-edges pinned their datasets.
    EXPECT_FALSE(ck.replicas.empty());
  }
}

TEST(DurableToolkit, CheckpointingIsPassive) {
  // A run with a policy but no faults must be byte-for-byte the run without
  // one: the interval timer is weak, so it cannot stretch the makespan.
  const wf::Workflow w = wf::make_fork_join(10, Rng(21));

  Harness plain = make_harness();
  const CompositeReport base = plain.toolkit->run(w, *plain.broker);
  ASSERT_TRUE(base.success) << base.error;

  Harness durable = make_harness();
  std::size_t sink_calls = 0;
  RunOptions options;
  options.checkpoints = resilience::CheckpointPolicy::interval_every(7.0);
  options.on_checkpoint = [&](const resilience::RunCheckpoint&) {
    ++sink_calls;
  };
  const CompositeReport r = durable.toolkit->run(w, *durable.broker, options);
  ASSERT_TRUE(r.success) << r.error;

  EXPECT_DOUBLE_EQ(r.makespan, base.makespan);
  EXPECT_GT(r.checkpoints_taken, 0u);
  EXPECT_EQ(sink_calls, r.checkpoints_taken);
}

TEST(DurableToolkit, FrontierStabilityFiresAfterAQuietWindow) {
  Harness h = make_harness();
  wf::Workflow w("stair");
  const auto a = add_task(w, "a", 10.0);
  const auto b = add_task(w, "b", 50.0);  // long tail: frontier quiet > window
  const auto c = add_task(w, "c", 20.0);
  w.add_dependency(a, b, mib(4));
  w.add_dependency(b, c, mib(4));

  std::vector<resilience::RunCheckpoint> taken;
  RunOptions options;
  options.checkpoints = resilience::CheckpointPolicy::frontier_stability(15.0);
  options.on_checkpoint = [&](const resilience::RunCheckpoint& ck) {
    taken.push_back(ck);
  };
  const CompositeReport r = h.toolkit->run(w, *h.broker, options);
  ASSERT_TRUE(r.success) << r.error;
  // After `a` completes the frontier stays quiet for 15s while `b` runs.
  ASSERT_GE(taken.size(), 1u);
  EXPECT_EQ(taken[0].completed_count(), 1u);
  EXPECT_EQ(r.checkpoints_taken, taken.size());
}

TEST(DurableToolkit, CrashThenResumeReExecutesOnlyTheFrontier) {
  const wf::Workflow w = make_data_chain(8, 30.0);

  // Uninterrupted reference.
  Harness ref = make_harness();
  const CompositeReport fresh = ref.toolkit->run(w, *ref.broker);
  ASSERT_TRUE(fresh.success) << fresh.error;

  // Crash the run mid-flight, keeping the latest snapshot.
  Harness before = make_harness();
  std::optional<resilience::RunCheckpoint> latest;
  RunOptions options;
  options.checkpoints = resilience::CheckpointPolicy::every_completions(1);
  options.on_checkpoint = [&](const resilience::RunCheckpoint& ck) {
    latest = ck;
  };
  bool done_called = false;
  std::optional<CompositeReport> partial;
  const std::uint64_t id = before.toolkit->start_run(
      w, *before.broker, options,
      [&](const CompositeReport&) { done_called = true; });
  before.toolkit->simulation().schedule_at(0.45 * fresh.makespan, [&] {
    partial = before.toolkit->abort_run(id, "injected crash");
  });
  before.toolkit->simulation().run();

  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(partial->success);
  EXPECT_NE(partial->error.find("aborted"), std::string::npos)
      << partial->error;
  EXPECT_FALSE(done_called);  // an aborted run never settles via its callback
  EXPECT_EQ(before.toolkit->active_run_count(), 0u);
  ASSERT_TRUE(latest.has_value());
  const std::size_t seeded = latest->completed_count();
  ASSERT_GT(seeded, 0u);
  ASSERT_LT(seeded, w.task_count());

  // Resume on a FRESH toolkit — the restarted process after the crash.
  Harness after = make_harness();
  RunOptions resume;
  resume.resume_from = &*latest;
  const CompositeReport resumed = after.toolkit->run(w, *after.broker, resume);
  ASSERT_TRUE(resumed.success) << resumed.error;
  EXPECT_EQ(resumed.resumed_tasks, seeded);
  // Only the remainder executed: every environment's task tally sums to the
  // surviving suffix, and the resumed makespan undercuts restart-from-zero.
  std::size_t executed = 0;
  for (const EnvironmentReport& e : resumed.environments)
    executed += e.tasks_run;
  EXPECT_EQ(executed, w.task_count() - seeded);
  EXPECT_LT(resumed.makespan, fresh.makespan);

  // Forensics still tiles the resumed makespan; the blame walk ends on a
  // Resume cause rather than dangling into the pre-crash epoch.
  const fx::TaskLedger& ledger = after.toolkit->ledger();
  bool saw_resume_cause = false;
  for (const auto& rec : ledger.attempts())
    if (rec.cause.kind == fx::CauseKind::Resume) saw_resume_cause = true;
  EXPECT_TRUE(saw_resume_cause);
  expect_closure(fx::critical_path(ledger), resumed);
}

TEST(DurableToolkit, ResumedConsumersPayTransfersWithoutPhantomCacheHits) {
  // Producer on alpha scatters one dataset to two consumers on beta. Fresh
  // run: one WAN transfer + one coalesced cache hit. A checkpoint taken after
  // the producer completed pins the replica at the PRODUCER's site only, so
  // the resumed consumers re-stage exactly like the fresh run's remainder —
  // stale consumer-side registrations would instead fake 2 hits / 0 copies.
  wf::Workflow w("scatter");
  const auto p = add_task(w, "producer", 10.0);
  const auto c0 = add_task(w, "left", 10.0);
  const auto c1 = add_task(w, "right", 10.0);
  w.add_dependency(p, c0, mib(64));
  w.add_dependency(p, c1, mib(64));
  const std::vector<EnvironmentId> assignment{0, 1, 1};

  auto make_tk = [] {
    auto tk = std::make_unique<Toolkit>();
    (void)tk->add_hpc("alpha", cluster::homogeneous_cluster(2, 16, gib(64)));
    (void)tk->add_hpc("beta", cluster::homogeneous_cluster(2, 16, gib(64)));
    return tk;
  };

  auto fresh_tk = make_tk();
  std::vector<resilience::RunCheckpoint> taken;
  RunOptions options;
  options.checkpoints = resilience::CheckpointPolicy::every_completions(1);
  options.on_checkpoint = [&](const resilience::RunCheckpoint& ck) {
    taken.push_back(ck);
  };
  const CompositeReport fresh = fresh_tk->run(w, assignment, options);
  ASSERT_TRUE(fresh.success) << fresh.error;
  EXPECT_EQ(fresh.cross_env_transfers, 1u);
  EXPECT_EQ(fresh.cross_env_cache_hits, 1u);

  // First snapshot: producer done, both consumers pending.
  ASSERT_GE(taken.size(), 1u);
  const resilience::RunCheckpoint& ck = taken[0];
  ASSERT_EQ(ck.completed_count(), 1u);
  ASSERT_TRUE(ck.completed[p]);
  ASSERT_EQ(ck.replicas.size(), 1u);
  EXPECT_EQ(ck.replicas[0].producer, p);

  auto resumed_tk = make_tk();
  RunOptions resume;
  resume.resume_from = &ck;
  const CompositeReport resumed = resumed_tk->run(w, assignment, resume);
  ASSERT_TRUE(resumed.success) << resumed.error;
  EXPECT_EQ(resumed.resumed_tasks, 1u);
  // The remainder of the run, replayed: one real WAN copy from the pinned
  // producer replica, one coalesced sibling — no phantom hits, no free data.
  EXPECT_EQ(resumed.cross_env_transfers, 1u);
  EXPECT_EQ(resumed.cross_env_cache_hits, 1u);
  EXPECT_EQ(resumed.cross_env_bytes, mib(64));
}

TEST(DurableToolkit, ResumeOfACompleteCheckpointSettlesInstantly) {
  Harness h = make_harness();
  const wf::Workflow w = make_data_chain(3);
  resilience::RunCheckpoint ck;
  ck.workflow = w.name();
  ck.task_count = w.task_count();
  ck.sequence = 1;
  ck.completed.assign(w.task_count(), 1);
  ck.placement.assign(w.task_count(), 0);
  ck.retries.assign(w.task_count(), 0);
  ck.backoff_draws.assign(w.task_count(), 0);
  ck.backoff_prev.assign(w.task_count(), 0.0);

  RunOptions resume;
  resume.resume_from = &ck;
  const CompositeReport r = h.toolkit->run(w, *h.broker, resume);
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.resumed_tasks, w.task_count());
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(DurableToolkit, ResumeRejectsACheckpointForADifferentDag) {
  Harness h = make_harness();
  const wf::Workflow w = make_data_chain(4);
  resilience::RunCheckpoint ck;
  ck.workflow = w.name();
  ck.task_count = 3;  // wrong shape
  ck.completed.assign(3, 0);
  ck.placement.assign(3, resilience::kNoEnvironment);
  ck.retries.assign(3, 0);
  ck.backoff_draws.assign(3, 0);
  ck.backoff_prev.assign(3, 0.0);
  RunOptions resume;
  resume.resume_from = &ck;
  EXPECT_THROW(h.toolkit->run(w, *h.broker, resume), std::invalid_argument);
}

TEST(DurableToolkit, ExplicitCheckpointAndAbortGuardRails) {
  Harness h = make_harness();
  const wf::Workflow w = make_data_chain(4);

  EXPECT_THROW(h.toolkit->checkpoint_run(999), std::invalid_argument);
  EXPECT_THROW(h.toolkit->abort_run(999, "nope"), std::invalid_argument);

  std::optional<CompositeReport> report;
  const std::uint64_t id = h.toolkit->start_run(
      w, *h.broker, {}, [&](const CompositeReport& r) { report = r; });

  // On-demand snapshot mid-run (what brownout suspension uses): no sink, no
  // policy — just the current closed prefix.
  std::optional<resilience::RunCheckpoint> ck;
  h.toolkit->simulation().schedule_at(30.0, [&] {
    ck = h.toolkit->checkpoint_run(id);
  });
  h.toolkit->simulation().run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->checkpoints_taken, 1u);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->sequence, 1u);
  EXPECT_NO_THROW(ck->validate_for(w));

  // The run settled: both verbs now refuse it.
  EXPECT_THROW(h.toolkit->checkpoint_run(id), std::logic_error);
  EXPECT_THROW(h.toolkit->abort_run(id, "late"), std::logic_error);
}

TEST(DurableToolkit, AbortBooksPartialWorkAsWaste) {
  Harness h = make_harness();
  const wf::Workflow w = make_data_chain(6, 40.0);
  const std::uint64_t id = h.toolkit->start_run(
      w, *h.broker, {}, [](const CompositeReport&) {});
  std::optional<CompositeReport> partial;
  h.toolkit->simulation().schedule_at(100.0, [&] {
    partial = h.toolkit->abort_run(id, "service crash");
  });
  h.toolkit->simulation().run();
  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(partial->success);
  // The killed in-flight attempt's partial execution is visible as waste, so
  // the crash-recovery bench can price what a restart throws away.
  EXPECT_GT(partial->wasted_core_seconds, 0.0);
  EXPECT_EQ(h.toolkit->active_run_count(), 0u);
}

}  // namespace
}  // namespace hhc::core
