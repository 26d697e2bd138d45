// The umbrella "composable workflows in hyper-heterogeneous environments"
// API — the repository's public entry point.
//
// A Toolkit owns one simulation and any number of execution environments
// (HPC clusters with selectable scheduling strategies, elastic cloud pools).
// A workflow's tasks can be assigned per-task to environments; cross-
// environment data dependencies pay a WAN transfer. This is the composition
// capability the paper's title promises and each section approaches from a
// different angle (CWSI scheduling, EnTK pilots, cloud-vs-HPC placement).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/resource_manager.hpp"
#include "cws/cwsi.hpp"
#include "cws/predictors.hpp"
#include "fabric/staging.hpp"
#include "federation/broker.hpp"
#include "obs/forensics/anomaly.hpp"
#include "obs/forensics/ledger.hpp"
#include "obs/observer.hpp"
#include "obs/telemetry/trace_context.hpp"
#include "resilience/chaos.hpp"
#include "resilience/durable/checkpoint.hpp"
#include "resilience/hedging.hpp"
#include "resilience/retry.hpp"
#include "sim/simulation.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workflow/opt/rewrite.hpp"
#include "workflow/workflow.hpp"

namespace hhc::core {

using EnvironmentId = std::size_t;
inline constexpr EnvironmentId kInvalidEnvironment = static_cast<EnvironmentId>(-1);

/// What kind of substrate an environment is backed by.
enum class EnvironmentKind { Hpc, Cloud };

/// Per-environment execution statistics for one composite run.
struct EnvironmentReport {
  std::string name;
  EnvironmentKind kind = EnvironmentKind::Hpc;
  std::size_t tasks_run = 0;
  double busy_core_seconds = 0.0;
  double utilization = 0.0;  ///< busy core-seconds / (cores x makespan).
};

/// Result of a composite (multi-environment) workflow run.
struct CompositeReport {
  bool success = false;
  std::string error;
  SimTime makespan = 0.0;
  std::size_t tasks = 0;
  std::size_t cross_env_transfers = 0;
  Bytes cross_env_bytes = 0;
  SimTime transfer_seconds = 0.0;  ///< Total cross-environment transfer time.
  /// Cross-environment edges satisfied without a WAN copy: the dataset was
  /// already resident at the consumer's environment (replica cache hit) or
  /// a transfer of it was already in flight there (coalesced).
  std::size_t cross_env_cache_hits = 0;
  Bytes cross_env_bytes_saved = 0;
  /// EnTK-style failure accounting, surfaced composite-wide instead of
  /// staying buried in subsystem-local records. `task_failures` counts every
  /// non-Completed job outcome (node failures, drains/cancellations);
  /// `task_resubmissions` the retries a federated broker issued;
  /// `tasks_rerouted` the resubmissions that landed on a *different*
  /// environment than the failed attempt. A failure with no retry budget
  /// left is terminal (success = false). Static-pin runs never retry, so a
  /// single failure there is terminal, exactly as before.
  std::size_t task_failures = 0;
  std::size_t task_resubmissions = 0;
  std::size_t tasks_rerouted = 0;
  /// Resilience-plane accounting. `tasks_hedged` counts speculative copies
  /// launched against suspected stragglers, `hedges_won` the races the copy
  /// won (the primary was killed). `recovery_recomputed_tasks` counts
  /// ancestor re-executions issued by lineage recovery after replica loss.
  /// `wasted_core_seconds` is the work thrown away: failed attempts, killed
  /// hedge losers, and timed-out attempts, at elapsed x allocated cores.
  std::size_t tasks_hedged = 0;
  std::size_t hedges_won = 0;
  std::size_t recovery_recomputed_tasks = 0;
  double wasted_core_seconds = 0.0;
  /// DAG-optimizer accounting (runs with RunOptions::rewrites set).
  /// `fused_tasks_run` counts winning completions of multi-constituent
  /// (fused/clustered) tasks; `constituents_completed` the original tasks
  /// credited through them — each gets its own provenance record.
  /// `constituent_failures` counts failed fused attempts where the blame
  /// landed on a specific constituent (named in the failure reason and the
  /// ledger detail). All zero when no rewrite log is in play.
  std::size_t fused_tasks_run = 0;
  std::size_t constituents_completed = 0;
  std::size_t constituent_failures = 0;
  /// Durability accounting (DESIGN.md §15). `resumed_tasks` counts tasks
  /// seeded as already-complete from a resume checkpoint (they never
  /// re-execute); `checkpoints_taken` the snapshots this run produced.
  std::size_t resumed_tasks = 0;
  std::size_t checkpoints_taken = 0;
  std::vector<EnvironmentReport> environments;
  /// Snapshot of every metric the run recorded (rm.*, cws.*, toolkit.*,
  /// sim.*). Additive across runs of the same Toolkit; MetricsSnapshot::merge
  /// folds snapshots from per-thread Toolkit clones in sweeps.
  obs::MetricsSnapshot metrics;
};

struct ToolkitConfig {
  std::uint64_t seed = 42;
  double wan_bandwidth = 50e6;  ///< Cross-environment link, bytes/s.
  SimTime wan_latency = 2.0;
  /// Per-environment replica cache capacity. Cross-environment edges stage
  /// through the data fabric: staged datasets land in the consumer
  /// environment's cache, so repeat consumers (a scatter) hit locally
  /// instead of re-paying the WAN. 0 disables caching — every dataset is
  /// too big to cache, so every cross-environment edge re-stages.
  Bytes env_cache_capacity = gib(64);
  fabric::EvictionPolicy env_cache_policy = fabric::EvictionPolicy::LRU;
  /// Cadence of per-environment core-utilization samplers during run();
  /// 0 disables. Samplers stop when the run's last task finishes.
  SimTime sample_period = 0.0;

  /// Resilience plane for composite runs (DESIGN.md §10). The defaults
  /// preserve pre-resilience behaviour exactly: no static-path retries, no
  /// backoff (retries fire on the next event), no hedging, no timeouts, no
  /// lineage recovery.
  struct ResilienceConfig {
    /// Retry budget for tasks on the static-assignment path. Federated runs
    /// keep using the broker's max_task_retries; 0 here preserves the
    /// static path's terminal-on-first-failure contract.
    std::size_t static_task_retries = 0;
    /// Backoff between retries on both paths (base_delay 0 = next event).
    resilience::RetryBackoff backoff;
    /// Straggler detection + speculative re-execution (off by default).
    resilience::HedgeConfig hedging;
    /// Kill attempts running longer than timeout_factor x the predictor's
    /// walltime estimate — the hung-task rescue. 0 disables.
    double timeout_factor = 0.0;
    /// When a task's input has no live replica anywhere, re-execute the
    /// minimal upstream cone instead of failing the task.
    bool lineage_recovery = false;
  };
  ResilienceConfig resilience;

  /// Forensics plane (DESIGN.md §11): per-attempt lifecycle ledger plus the
  /// streaming anomaly monitor. Recording is passive — no simulation
  /// events, no Rng draws, no extra spans — so enabling it cannot change a
  /// run's behaviour; disabling it only skips the bookkeeping (and clears
  /// the ledger at run start).
  struct ForensicsConfig {
    bool enabled = true;
  };
  ForensicsConfig forensics;
};

/// Everything optional about one run; the placement is the only required
/// argument of Toolkit::run/start_run. Defaults preserve plain-run behaviour
/// exactly: no rewrite log, no checkpoints, nothing resumed, no trace.
struct RunOptions {
  /// The wf::opt RewriteLog of a DAG the optimizer rewrote (DESIGN.md §14).
  /// Fused/clustered tasks keep per-constituent semantics through
  /// execution: one provenance record per original task (intervals split
  /// across the fused attempt, predictor observations per constituent
  /// kind), failures blamed on the constituent that was running (named in
  /// the report error and the forensics ledger detail), and the optimizer
  /// accounting fields of CompositeReport filled in. Retry, hedging, chaos
  /// and lineage recovery operate on the optimized DAG unchanged. Must
  /// describe the workflow (optimized_task_count() == task_count()); an
  /// identity log is byte-identical to none. Not copied: the pointee must
  /// outlive the run.
  const wf::opt::RewriteLog* rewrites = nullptr;
  /// Durability (DESIGN.md §15): when to snapshot the run. Interval
  /// triggers use a weak self-rescheduling timer, so checkpointing never
  /// extends the makespan. Passive: a policy without faults changes
  /// nothing about the run.
  resilience::CheckpointPolicy checkpoints;
  /// Sink invoked (synchronously, inside the simulation) with each
  /// checkpoint taken. The WorkflowService journals these.
  std::function<void(const resilience::RunCheckpoint&)> on_checkpoint;
  /// Resume from this snapshot: completed tasks are seeded (they never
  /// re-execute), producer replicas re-registered, retry budgets restored,
  /// and only the surviving frontier dispatches — with Cause::Resume edges
  /// so forensics blame still tiles the makespan. Validated against the
  /// workflow before the run starts; copied, so the pointee need not
  /// outlive the call.
  const resilience::RunCheckpoint* resume_from = nullptr;
  /// Telemetry-plane correlation (DESIGN.md §16). When active, the run id
  /// is filled in at launch and workflow/task/transfer spans carry the ids
  /// as attributes ("sub"/"run"/"task"/"attempt"), so one submission's
  /// cross-layer timeline can be extracted. Inactive (the default) stamps
  /// nothing: untraced runs stay byte-identical.
  obs::TraceContext trace;
};

/// The facade. One instance per experiment; not thread-safe (clone per
/// thread for sweeps — construction is cheap).
class Toolkit {
 public:
  explicit Toolkit(ToolkitConfig config = {});
  ~Toolkit();
  Toolkit(const Toolkit&) = delete;
  Toolkit& operator=(const Toolkit&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }

  /// Adds an HPC environment with one of the scheduler strategies from
  /// cws::make_strategy ("fifo", "fifo-fit", "easy-backfill", "cws-rank",
  /// "cws-filesize", "cws-heft", "cws-tarema", "cws-datalocality").
  EnvironmentId add_hpc(const std::string& name, cluster::ClusterSpec spec,
                        const std::string& strategy = "fifo-fit");

  /// Adds an elastic cloud pool: up to `max_instances` nodes of
  /// `cores`/`memory`, each paying `boot_overhead` before a task starts.
  EnvironmentId add_cloud(const std::string& name, std::size_t max_instances,
                          double cores, Bytes memory, double speed = 1.0,
                          SimTime boot_overhead = 60.0);

  std::size_t environment_count() const noexcept { return envs_.size(); }
  const std::string& environment_name(EnvironmentId id) const;

  /// Runs a workflow to completion on the toolkit's own event loop. The
  /// placement is the only required argument and has three forms; every
  /// other knob lives in RunOptions (rewrite log, checkpoints and their
  /// sink, resume point, trace context). The inputs are validated up front:
  /// the workflow, the assignment (size and environment ids), the rewrite
  /// log and the resume checkpoint against this workflow, the broker's
  /// sites. The report carries per-environment usage, failure/retry
  /// counts, makespan and the metrics snapshot; the forensics ledger()
  /// holds the run's attempts.
  ///
  /// Every task on one environment.
  CompositeReport run(const wf::Workflow& workflow, EnvironmentId env,
                      const RunOptions& options = {});

  /// A per-task assignment (size = task_count). Cross-environment edges pay
  /// the WAN transfer before the consumer becomes ready. This is the
  /// static-pin path, preserved byte-identically for experiments that
  /// hand-tune placements.
  CompositeReport run(const wf::Workflow& workflow,
                      const std::vector<EnvironmentId>& assignment,
                      const RunOptions& options = {});

  /// Placement delegated to a federation broker: each task is brokered to a
  /// site as it becomes ready (capability matching + the broker's policy),
  /// failed tasks are re-brokered with hysteresis up to the broker's retry
  /// budget, and reroute/failure counts land in the report. The broker's
  /// sites must reference this Toolkit's environments; fabric, predictor,
  /// observer, and site locations are bound automatically. This is the
  /// default placement path for composite runs — reach for the assignment
  /// form only to pin by hand.
  CompositeReport run(const wf::Workflow& workflow, federation::Broker& broker,
                      const RunOptions& options = {});

  /// Starts a federated run WITHOUT driving the simulation — the caller owns
  /// the event loop (schedules arrivals, then calls simulation().run()). It
  /// shares run()'s validation, setup and settlement, so the same workflow
  /// and options yield the same schedule either way. Any number of runs may
  /// be in flight at once; they share the broker's sites, the fabric and the
  /// WAN, so each run's backlog is exactly the contention the others'
  /// placement policies see. `done` fires once, from inside the simulation,
  /// when the run settles (every task done, or terminal failure); its report
  /// carries per-run environment usage, failure counts and makespan, tagged
  /// to this run only. `workflow` must stay alive until `done` fires. Global
  /// observation planes that assume one run at a time — utilization
  /// samplers, chaos arming, the forensics ledger — stay with run() and are
  /// not engaged here (the service layer arms chaos itself via arm_chaos()).
  /// Returns the run's id, the handle checkpoint_run()/abort_run() take.
  std::uint64_t start_run(const wf::Workflow& workflow,
                          federation::Broker& broker, const RunOptions& options,
                          std::function<void(const CompositeReport&)> done);

  /// Snapshots a live run begun with start_run() on demand (brownout
  /// suspension takes one right before abort_run). Advances the run's
  /// checkpoint sequence but does NOT invoke the RunOptions sink. Throws
  /// std::invalid_argument for unknown ids, std::logic_error once settled.
  resilience::RunCheckpoint checkpoint_run(std::uint64_t run_id);

  /// Tears down a live async run — the controller-crash/suspension path.
  /// Outstanding jobs are killed (their partial execution lands in
  /// wasted_core_seconds), watchdogs cancelled, the broker/registry released;
  /// the run settles failed with error "aborted: <reason>" and its `done`
  /// callback is NOT invoked (the caller owns what happens next). Returns the
  /// final partial report. Throws std::invalid_argument for unknown ids,
  /// std::logic_error for synchronous or already-settled runs.
  CompositeReport abort_run(std::uint64_t run_id, const std::string& reason);

  /// Arms the attached chaos engine against the current environment shape —
  /// what run() does implicitly at run start, exposed for the async path
  /// where the caller owns the event loop (WorkflowService campaigns). No-op
  /// without an attached engine.
  void arm_chaos();

  /// The attached chaos engine (nullptr when none).
  resilience::ChaosEngine* chaos() const noexcept { return chaos_; }

  /// Settles every still-active start_run() as failed after the caller's
  /// simulation().run() drained with tasks pending (livelock under chaos, or
  /// a wedged federation). Invokes their done callbacks with the deadlock
  /// error; returns how many runs were settled.
  std::size_t fail_unsettled_runs();

  /// Runs begun with start_run() whose report has not yet been delivered.
  std::size_t active_run_count() const noexcept;

  /// The run id the NEXT run (run()/start_run()) will be assigned. Lets a
  /// caller journal the submission -> run binding write-ahead (the service
  /// WAL) before start_run() fires any event.
  std::uint64_t next_run_id() const noexcept { return next_run_id_; }

  /// A broker-ready descriptor of one environment: capacity and speed from
  /// the cluster spec (per-node figures are the max across node classes, so
  /// capability matching answers "can any node host this"), fabric location
  /// bound, cost as given. Tune the queue-wait prior and cost on the result
  /// before Broker::add_site.
  federation::SiteDescriptor describe_environment(
      EnvironmentId id, double cost_per_core_hour = 0.0) const;

  /// Takes an environment out of service. During a federated run the broker
  /// stops placing there, queued federated jobs are cancelled and
  /// re-brokered, and (when `kill_running`) every node is failed so running
  /// jobs die and re-broker too — the site-crash scenario. With
  /// `kill_running` false this is a graceful drain: running work finishes,
  /// nothing new lands. No-op on the static path except the node failures.
  void drain_site(EnvironmentId id, bool kill_running = true);

  /// Reverses drain_site: brings every down node back up, undrains the
  /// broker site (federated runs), and kicks the scheduler. Site-outage
  /// chaos events call this to end the outage.
  void restore_site(EnvironmentId id);

  /// Arms `chaos` against this toolkit: installs delivery hooks that route
  /// node crashes / preemptions into the right resource manager, link
  /// faults into the fabric topology, site outages through
  /// drain_site/restore_site (with replica invalidation — the lineage
  /// trigger), and transfer aborts into the staging scheduler. Task faults
  /// (straggler/hang/corrupt) are consulted at submit time. The engine is
  /// armed at the start of every subsequent run(); pass nullptr to detach.
  void attach_chaos(resilience::ChaosEngine* chaos);

  /// The cross-run straggler detector feeding hedge thresholds.
  const resilience::StragglerDetector& straggler_detector() const noexcept {
    return detector_;
  }

  /// The forensics ledger for the most recent run: one AttemptRecord per
  /// attempt with lifecycle milestones and the causal edge that made it
  /// ready. Feed it to obs::forensics::critical_path for the makespan blame
  /// report, or keep a copy across runs for obs::forensics::diff_runs.
  const obs::forensics::TaskLedger& ledger() const noexcept { return ledger_; }

  /// The streaming anomaly monitor. Configure watchers before run() (e.g.
  /// watch_zscore("stage_throughput", env_name)); during runs the Toolkit
  /// feeds it per-attempt queue waits ("queue_wait", keyed by environment
  /// name) and per-edge staging throughput ("stage_throughput", keyed by
  /// destination environment name). During federated runs whose broker has
  /// advisory_alerts on, fired alerts are forwarded to Broker::advise.
  obs::forensics::AnomalyMonitor& anomaly_monitor() noexcept { return monitor_; }
  const obs::forensics::AnomalyMonitor& anomaly_monitor() const noexcept {
    return monitor_;
  }
  /// Alerts raised so far (all runs since the last monitor reset).
  const obs::AlertLog& alerts() const noexcept { return monitor_.alerts(); }

  /// Access to an environment's provenance (tasks it executed).
  const cws::ProvenanceStore& provenance() const noexcept { return provenance_; }

  /// The toolkit-wide observability sink: metrics from every environment's
  /// resource manager and scheduler, workflow/task/transfer spans, and the
  /// utilization samplers. Disable before run() to measure uninstrumented.
  obs::Observer& observer() noexcept { return obs_; }
  const obs::Observer& observer() const noexcept { return obs_; }

  /// The data fabric carrying cross-environment edges: one contended WAN
  /// link per environment pair, a replica catalog, and per-environment
  /// caches. Exposed for inspection (link utilization, cache hit ratios).
  fabric::Topology& topology() noexcept { return topology_; }
  fabric::TransferScheduler& staging() noexcept { return staging_; }
  const fabric::ReplicaCache& cache(EnvironmentId id) const { return *caches_.at(id); }

  /// Fabric location name of an environment ("env<i>:<name>").
  std::string env_location(EnvironmentId id) const;

 private:
  struct Environment {
    std::string name;
    EnvironmentKind kind = EnvironmentKind::Hpc;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<cluster::ResourceManager> rm;
  };

  struct RunState {
    const wf::Workflow* workflow = nullptr;
    const std::vector<EnvironmentId>* assignment = nullptr;  ///< Static path.
    federation::Broker* broker = nullptr;                    ///< Federated path.
    /// Optimizer rewrite log for this run (nullptr = plain run). Maps each
    /// task to its original constituents for provenance and failure blame.
    const wf::opt::RewriteLog* rewrites = nullptr;
    /// Where each task actually runs; filled at dispatch (static path copies
    /// the assignment, federated path records the broker's choice — which
    /// can change on re-broker).
    std::vector<EnvironmentId> placement;
    std::vector<federation::SiteId> site_of;   ///< Broker site per task.
    std::vector<std::uint32_t> retries;        ///< Resubmissions so far.
    std::vector<cluster::JobId> job_of;        ///< Outstanding job (0 = none).
    std::vector<std::size_t> pending_preds;
    /// Resilience plane: unified backoff for this run's retries, plus the
    /// per-task flags the hedging race and lineage recovery need.
    resilience::RetryPolicy retry;
    std::vector<std::uint8_t> completed;       ///< Task has a settled success.
    std::vector<std::uint8_t> ever_completed;  ///< Completed at least once.
    std::vector<std::uint8_t> in_recovery;     ///< Part of a lineage recovery.
    std::vector<std::uint8_t> hedged;          ///< Hedge launched this attempt.
    std::vector<cluster::JobId> hedge_job_of;  ///< Outstanding hedge (0 = none).
    std::vector<EnvironmentId> hedge_env;
    std::vector<federation::SiteId> hedge_site;
    /// Watchdog events, cancelled when their attempt settles so a no-op
    /// check never extends the run.
    std::vector<sim::EventHandle> hedge_check;
    std::vector<sim::EventHandle> timeout_check;
    std::vector<sim::EventHandle> hedge_timeout_check;
    /// Forensics: ledger record of the task's current primary/hedge attempt
    /// (kNoAttempt when forensics is off or no attempt is open).
    std::vector<obs::forensics::AttemptId> ledger_of;
    std::vector<obs::forensics::AttemptId> hedge_ledger_of;
    std::size_t remaining = 0;
    int wf_id = -1;  ///< Registry id for this run (CWSI workflow context).
    bool failed = false;
    std::string error;
    CompositeReport report;
    obs::SpanId workflow_span = obs::kNoSpan;
    /// Trace-context for this run (inactive unless RunOptions carried one);
    /// run id filled at launch. Attempt stamping is gated on active().
    obs::TraceContext trace;
    /// Per-environment execution accounting for THIS run (indexed by
    /// EnvironmentId) — concurrent runs' reports stay independent.
    std::vector<std::size_t> env_tasks_run;
    std::vector<double> env_busy_core_seconds;
    SimTime start = 0.0;
    bool async = false;             ///< Begun via start_run (caller-driven sim).
    bool settled = false;           ///< Report delivered; ignore stragglers.
    bool settle_pending = false;    ///< Async settlement event already posted.
    bool record_forensics = false;  ///< This run writes the shared ledger.
    std::function<void(const CompositeReport&)> done;  ///< Async completion.
    /// Durability plane (DESIGN.md §15).
    std::uint64_t id = 0;           ///< Handle for checkpoint_run/abort_run.
    resilience::CheckpointPolicy ckpt_policy;
    std::function<void(const resilience::RunCheckpoint&)> on_checkpoint;
    std::optional<resilience::RunCheckpoint> resume_from;  ///< Seed on launch.
    std::uint64_t ckpt_seq = 0;               ///< Checkpoints taken so far.
    std::size_t completions_since_ckpt = 0;   ///< Progress since the last one.
    SimTime last_completion = 0.0;            ///< Frontier-stability marker.
    sim::EventHandle ckpt_timer;              ///< Interval trigger (weak).
    sim::EventHandle stability_check;         ///< Stability trigger (weak).
    bool aborted = false;           ///< Torn down via abort_run.
  };

  /// Registers the environment in the fabric: a location, a bounded replica
  /// cache, and a WAN link to every existing environment (full mesh).
  void join_fabric(EnvironmentId id);

  /// The launch step every entry point shares: validates the inputs,
  /// allocates the RunState (kept alive in runs_ — outstanding callbacks and
  /// watchdog events capture it by reference), copies the options into it,
  /// and — for a non-empty workflow — registers it, begins the broker run
  /// and opens the workflow span. Nothing is dispatched yet.
  RunState& open_run(const wf::Workflow& workflow,
                     const std::vector<EnvironmentId>* assignment,
                     federation::Broker* broker, const RunOptions& options);
  /// Drives an opened run on the toolkit's own event loop (fabric reset,
  /// ledger, advisory sink, samplers, chaos), then settles it.
  CompositeReport run_sync(RunState& state);

  RunState* find_run(std::uint64_t run_id) noexcept;
  /// Dispatches the run's initial frontier: sources for a fresh run, or —
  /// after seed_from_checkpoint — every incomplete task whose predecessors
  /// all completed, with Cause::Resume edges. Arms the interval checkpoint
  /// timer when configured.
  void launch_frontier(RunState& state);
  /// Seeds completed tasks, placements, retry budgets and producer replicas
  /// from state.resume_from (already validated against the workflow).
  void seed_from_checkpoint(RunState& state);
  /// Snapshots the run's current durable state and books it: sequence,
  /// progress marker, report count and metric. Does not call the sink.
  resilience::RunCheckpoint record_checkpoint(RunState& state);
  /// Policy-driven snapshot: record_checkpoint + the RunOptions sink.
  void take_checkpoint(RunState& state);
  /// Completion-driven triggers (EveryNCompletions / FrontierStability);
  /// called on every winning completion while a policy is enabled.
  void note_checkpoint_completion(RunState& state);
  /// Self-rescheduling weak interval timer; only snapshots when the run made
  /// progress since the last checkpoint.
  void arm_checkpoint_timer(RunState& state);

  /// Emits one provenance record per constituent of a fused task's settled
  /// attempt, splitting the attempt's interval in proportion to constituent
  /// base runtimes. For failed attempts, constituents that finished before
  /// the failure are recorded as completed and the one executing at the
  /// failure instant is returned (the blame target); wf::kInvalidTask when
  /// the attempt completed or never held an allocation.
  wf::TaskId record_constituents(RunState& state, wf::TaskId task,
                                 const cluster::JobRecord& rec,
                                 const Environment& env);

  /// Checks + binds a broker (site environments, locations, fabric,
  /// predictor, observer).
  void bind_broker(federation::Broker& broker);
  /// Schedules an async run's settlement one event later (so synchronous
  /// hedge-loser kills and cancellations account first), then delivers.
  void settle_async(RunState& state);
  /// The settle step every run ends in (sync return, async delivery,
  /// abort): marks it settled, releases the broker run and registry id,
  /// fills success/error/makespan/metrics/environments, and fires done()
  /// when one is set.
  void close_run(RunState& state);
  /// Fills report.environments/utilization from the run's own accounting.
  void build_env_reports(RunState& state);

  /// Places and launches one attempt of `task`. `cause` is the forensics
  /// edge explaining why the task became ready now (dependency completion,
  /// retry after the linked attempt, recovery episode, ...).
  void dispatch(RunState& state, wf::TaskId task, obs::forensics::Cause cause);
  /// Stages `task`'s cross-environment inputs toward `env_id`, then calls
  /// `done(ok, error)` — ok=false when any input could not be staged.
  /// `led` is the ledger record credited with the staged bytes.
  void stage_inputs(RunState& state, wf::TaskId task, EnvironmentId env_id,
                    obs::forensics::AttemptId led,
                    std::function<void(bool, const std::string&)> done);
  void submit_task(RunState& state, wf::TaskId task);
  /// Submits one attempt (primary or hedge) of `task` to `env_id`, applying
  /// chaos task faults and arming straggler/timeout watchdogs at job start.
  void submit_attempt(RunState& state, wf::TaskId task, EnvironmentId env_id,
                      bool hedge);
  void arm_watchdogs(RunState& state, wf::TaskId task,
                     const cluster::JobRecord& rec, bool hedge);
  void launch_hedge(RunState& state, wf::TaskId task);
  void on_attempt_complete(RunState& state, wf::TaskId task,
                           const cluster::JobRecord& rec, bool hedge);
  /// Failure path shared by job failures and staging failures: classify,
  /// consult budget + backoff, retry or end the run. `from` is the ledger
  /// record of the attempt whose failure triggered this (the retry's cause).
  void handle_task_failure(RunState& state, wf::TaskId task,
                           resilience::FailureClass cls,
                           const std::string& reason,
                           obs::forensics::AttemptId from);
  void on_staging_failed(RunState& state, wf::TaskId task,
                         const std::string& error);
  /// Lineage recovery: re-executes the upstream cone whose outputs lost
  /// every live replica, then re-dispatches `task`. `from` is the starved
  /// attempt's ledger record (the recovery episode's cause).
  void trigger_recovery(RunState& state, wf::TaskId task,
                        const std::vector<wf::TaskId>& cone,
                        obs::forensics::AttemptId from);
  std::size_t retry_budget(const RunState& state,
                           resilience::FailureClass cls) const;
  void install_chaos_hooks();

  /// Stamps the run's trace-context ids onto a span ("sub"/"run", plus
  /// "task"/"attempt"/"hedge" for attempt-level spans when provided).
  /// No-op when the run carries no context — untraced runs stamp nothing.
  void stamp_trace(const RunState& state, obs::SpanId span,
                   std::int64_t task = -1, int attempt = -1,
                   bool hedge = false);

  void finish_run_observation(RunState& state);

  ToolkitConfig config_;
  sim::Simulation sim_;
  Rng rng_;
  obs::Observer obs_;
  fabric::DataCatalog catalog_;
  fabric::Topology topology_;
  fabric::TransferScheduler staging_;
  std::vector<std::unique_ptr<fabric::ReplicaCache>> caches_;  // per env
  std::vector<Environment> envs_;
  cws::WorkflowRegistry registry_;
  cws::ProvenanceStore provenance_;
  std::unique_ptr<cws::RuntimePredictor> predictor_;
  resilience::StragglerDetector detector_;  ///< Persists across runs.
  obs::forensics::TaskLedger ledger_;       ///< Most recent run's attempts.
  obs::forensics::AnomalyMonitor monitor_;  ///< Persists across runs.
  resilience::ChaosEngine* chaos_ = nullptr;
  /// Every run this toolkit has begun, synchronous and async. States stay
  /// alive as long as anything may still reference them: clean synchronous
  /// runs are reclaimed when run() returns with the event queue drained;
  /// failed/deadlocked and async runs are kept for the toolkit's lifetime
  /// (straggler completions and parked callbacks hold references).
  std::vector<std::unique_ptr<RunState>> runs_;
  std::uint64_t next_run_id_ = 1;
};

}  // namespace hhc::core
