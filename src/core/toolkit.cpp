#include "core/toolkit.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "cws/strategies.hpp"
#include "obs/prof/prof.hpp"
#include "resilience/lineage.hpp"
#include "workflow/analysis.hpp"

namespace hhc::core {

Toolkit::Toolkit(ToolkitConfig config)
    : config_(config), rng_(config.seed), topology_(sim_, &obs_),
      staging_(sim_, topology_, catalog_, &obs_),
      predictor_(std::make_unique<cws::LotaruPredictor>()),
      detector_(config.resilience.hedging) {}

Toolkit::~Toolkit() = default;

std::string Toolkit::env_location(EnvironmentId id) const {
  return "env" + std::to_string(id) + ":" + envs_.at(id).name;
}

void Toolkit::join_fabric(EnvironmentId id) {
  const std::string loc = env_location(id);
  topology_.add_node(loc);
  for (EnvironmentId other = 0; other < id; ++other)
    topology_.add_link(env_location(other), loc,
                       fabric::LinkConfig{config_.wan_bandwidth, config_.wan_latency});
  caches_.push_back(std::make_unique<fabric::ReplicaCache>(
      loc, fabric::CacheConfig{config_.env_cache_capacity, config_.env_cache_policy},
      &catalog_));
  staging_.attach_cache(loc, *caches_.back());
}

EnvironmentId Toolkit::add_hpc(const std::string& name, cluster::ClusterSpec spec,
                               const std::string& strategy) {
  Environment env;
  env.name = name;
  env.kind = EnvironmentKind::Hpc;
  env.cluster = std::make_unique<cluster::Cluster>(std::move(spec));
  env.rm = std::make_unique<cluster::ResourceManager>(
      sim_, *env.cluster,
      cws::make_strategy(strategy, registry_, *predictor_, provenance_));
  env.rm->set_observer(&obs_, name);
  envs_.push_back(std::move(env));
  join_fabric(envs_.size() - 1);
  return envs_.size() - 1;
}

EnvironmentId Toolkit::add_cloud(const std::string& name, std::size_t max_instances,
                                 double cores, Bytes memory, double speed,
                                 SimTime boot_overhead) {
  Environment env;
  env.name = name;
  env.kind = EnvironmentKind::Cloud;
  env.cluster = std::make_unique<cluster::Cluster>(
      cluster::homogeneous_cluster(max_instances, cores, memory, speed));
  cluster::ResourceManagerConfig rm_config;
  rm_config.scheduling_overhead = boot_overhead;  // instance boot before start
  env.rm = std::make_unique<cluster::ResourceManager>(
      sim_, *env.cluster, std::make_unique<cluster::FifoFitScheduler>(), rm_config);
  env.rm->set_observer(&obs_, name);
  envs_.push_back(std::move(env));
  join_fabric(envs_.size() - 1);
  return envs_.size() - 1;
}

const std::string& Toolkit::environment_name(EnvironmentId id) const {
  return envs_.at(id).name;
}

federation::SiteDescriptor Toolkit::describe_environment(
    EnvironmentId id, double cost_per_core_hour) const {
  const Environment& env = envs_.at(id);
  const cluster::ClusterSpec& spec = env.cluster->spec();
  federation::SiteDescriptor site;
  site.name = env.name;
  site.environment = id;
  site.nodes = spec.total_nodes();
  site.cores_per_node = 0.0;
  site.gpus_per_node = 0;
  site.memory_per_node = 0;
  site.cpu_speed = 0.0;
  for (const auto& c : spec.classes) {
    site.cores_per_node = std::max(site.cores_per_node, c.cores);
    site.gpus_per_node = std::max(site.gpus_per_node, c.gpus);
    site.memory_per_node = std::max(site.memory_per_node, c.memory);
    site.cpu_speed = std::max(site.cpu_speed, c.cpu_speed);
  }
  site.cost_per_core_hour = cost_per_core_hour;
  site.location = env_location(id);
  return site;
}

CompositeReport Toolkit::run(const wf::Workflow& workflow, EnvironmentId env,
                             const RunOptions& options) {
  return run(workflow, std::vector<EnvironmentId>(workflow.task_count(), env),
             options);
}

CompositeReport Toolkit::run(const wf::Workflow& workflow,
                             const std::vector<EnvironmentId>& assignment,
                             const RunOptions& options) {
  return run_sync(open_run(workflow, &assignment, nullptr, options));
}

CompositeReport Toolkit::run(const wf::Workflow& workflow,
                             federation::Broker& broker,
                             const RunOptions& options) {
  return run_sync(open_run(workflow, nullptr, &broker, options));
}

std::uint64_t Toolkit::start_run(const wf::Workflow& workflow,
                                 federation::Broker& broker,
                                 const RunOptions& options,
                                 std::function<void(const CompositeReport&)> done) {
  RunState& state = open_run(workflow, nullptr, &broker, options);
  state.async = true;
  state.done = std::move(done);
  if (workflow.empty())
    settle_async(state);  // remaining == 0: delivers a success report
  else
    launch_frontier(state);
  return state.id;
}

void Toolkit::bind_broker(federation::Broker& broker) {
  if (broker.site_count() == 0)
    throw std::invalid_argument("broker has no sites");
  for (federation::SiteId s = 0; s < broker.site_count(); ++s) {
    const federation::SiteDescriptor& site = broker.site(s);
    if (site.environment >= envs_.size())
      throw std::out_of_range("broker site '" + site.name +
                              "' references unknown environment");
    if (site.location.empty()) broker.set_site_location(s, env_location(site.environment));
  }
  broker.bind_fabric(&catalog_, &topology_);
  broker.bind_predictor(predictor_.get());
  broker.set_observer(&obs_);
}

Toolkit::RunState& Toolkit::open_run(const wf::Workflow& workflow,
                                     const std::vector<EnvironmentId>* assignment,
                                     federation::Broker* broker,
                                     const RunOptions& options) {
  workflow.validate();
  const std::size_t n = workflow.task_count();
  if (assignment) {
    if (assignment->size() != n)
      throw std::invalid_argument("assignment size != task count");
    for (EnvironmentId e : *assignment)
      if (e >= envs_.size()) throw std::out_of_range("bad environment id");
  }
  if (options.rewrites && options.rewrites->optimized_task_count() != n)
    throw std::invalid_argument(
        "rewrite log does not describe this workflow (" +
        std::to_string(options.rewrites->optimized_task_count()) +
        " tasks vs " + std::to_string(n) + ")");
  if (options.resume_from) options.resume_from->validate_for(workflow);
  if (broker) bind_broker(*broker);

  runs_.push_back(std::make_unique<RunState>());
  RunState& state = *runs_.back();
  state.id = next_run_id_++;
  state.workflow = &workflow;
  state.assignment = assignment;
  state.broker = broker;
  state.rewrites = options.rewrites;
  state.placement.assign(n, kInvalidEnvironment);
  state.site_of.assign(n, federation::kInvalidSite);
  state.retries.assign(n, 0);
  state.job_of.assign(n, 0);
  state.retry = resilience::RetryPolicy(config_.resilience.backoff, config_.seed);
  state.completed.assign(n, 0);
  state.ever_completed.assign(n, 0);
  state.in_recovery.assign(n, 0);
  state.hedged.assign(n, 0);
  state.hedge_job_of.assign(n, 0);
  state.hedge_env.assign(n, kInvalidEnvironment);
  state.hedge_site.assign(n, federation::kInvalidSite);
  state.hedge_check.assign(n, {});
  state.timeout_check.assign(n, {});
  state.hedge_timeout_check.assign(n, {});
  state.ledger_of.assign(n, obs::forensics::kNoAttempt);
  state.hedge_ledger_of.assign(n, obs::forensics::kNoAttempt);
  state.pending_preds.resize(n);
  for (wf::TaskId t = 0; t < n; ++t)
    state.pending_preds[t] = workflow.predecessors(t).size();
  state.remaining = n;
  state.report.tasks = n;
  state.env_tasks_run.assign(envs_.size(), 0);
  state.env_busy_core_seconds.assign(envs_.size(), 0.0);
  state.start = sim_.now();
  state.ckpt_policy = options.checkpoints;
  state.on_checkpoint = options.on_checkpoint;
  if (options.resume_from) state.resume_from = *options.resume_from;
  if (options.trace.active()) {
    state.trace = options.trace;
    state.trace.run = state.id;
  }
  if (workflow.empty()) return state;

  // Register the workflow so environment schedulers (cws-rank, cws-heft,
  // cws-datalocality, ...) see graph context for the tasks we submit.
  state.wf_id = registry_.register_workflow(workflow);
  if (broker) broker->begin_run(workflow, state.wf_id);
  if (obs_.on()) {
    state.workflow_span = obs_.begin_span(state.start, "workflow", workflow.name());
    obs_.span_attr(state.workflow_span, "tasks", static_cast<std::int64_t>(n));
    stamp_trace(state, state.workflow_span);
  }
  return state;
}

void Toolkit::build_env_reports(RunState& state) {
  for (EnvironmentId e = 0; e < envs_.size(); ++e) {
    const Environment& env = envs_[e];
    EnvironmentReport er;
    er.name = env.name;
    er.kind = env.kind;
    er.tasks_run = state.env_tasks_run[e];
    er.busy_core_seconds = state.env_busy_core_seconds[e];
    const double cores = env.cluster->total_cores();
    if (state.report.makespan > 0 && cores > 0)
      er.utilization = er.busy_core_seconds / (cores * state.report.makespan);
    state.report.environments.push_back(er);
  }
}

CompositeReport Toolkit::run_sync(RunState& state) {
  HHC_PROF_SCOPE("toolkit.run");
  const wf::Workflow& workflow = *state.workflow;
  federation::Broker* broker = state.broker;
  state.record_forensics = config_.forensics.enabled;
  // Fresh fabric state per run: caches first (they unwind their catalog
  // replicas), then any replicas registered outside a cache.
  for (auto& cache : caches_) cache->clear();
  catalog_.clear();

  if (config_.forensics.enabled)
    ledger_.begin_run(state.start, workflow.name(), workflow.task_count());
  else
    ledger_.clear();
  // Federated runs with advisory holddowns on get the monitor's alerts
  // routed into the broker; everyone else just accumulates the AlertLog.
  const bool advisory = broker && broker->config().advisory_alerts;
  if (advisory)
    monitor_.set_sink(
        [this, broker](const obs::Alert& a) { broker->advise(a, sim_.now()); });

  if (!workflow.empty()) {
    if (obs_.on() && config_.sample_period > 0) {
      for (auto& env : envs_) {
        const cluster::Cluster* cl = env.cluster.get();
        obs_.sample(sim_, "util." + env.name, config_.sample_period, [cl] {
          const double total = cl->total_cores();
          return total > 0 ? cl->used_cores() / total : 0.0;
        });
      }
    }
    arm_chaos();
    launch_frontier(state);
    sim_.run();
  }
  if (advisory) monitor_.set_sink(nullptr);

  if (state.remaining != 0 && !state.failed) {
    // The event queue drained with tasks still pending: under chaos this is
    // a livelock (e.g. a permanently partitioned link parked the staging
    // transfers a task is waiting on). Report it as a run failure instead of
    // crashing the embedding experiment.
    state.failed = true;
    state.error = "deadlock: " + std::to_string(state.remaining) +
                  " task(s) pending with no runnable events";
    finish_run_observation(state);
  }

  if (config_.forensics.enabled) ledger_.end_run(sim_.now(), !state.failed);
  if (obs_.on()) {
    for (fabric::Link* link : topology_.links())
      obs_.gauge_set(sim_.now(), "fabric.link_utilization",
                     link->utilization(sim_.now()), link->name());
    for (EnvironmentId e = 0; e < caches_.size(); ++e)
      obs_.gauge_set(sim_.now(), "fabric.cache_hit_ratio",
                     caches_[e]->hit_ratio(), env_location(e));
    obs::record_kernel_metrics(obs_, sim_);
  }
  close_run(state);
  const CompositeReport report = state.report;
  // A clean run left nothing that could reference its state (the queue
  // drained, every job settled); reclaim it. Failed/deadlocked runs keep
  // theirs — parked callbacks in the resource managers still point at it.
  if (state.remaining == 0 && runs_.back().get() == &state) runs_.pop_back();
  return report;
}

void Toolkit::settle_async(RunState& state) {
  if (!state.async || state.settled || state.settle_pending) return;
  state.settle_pending = true;
  // One event later, so synchronous hedge-loser kills and queue cancellations
  // land their waste accounting in the report before it is delivered.
  sim_.post([this, &state] {
    state.settle_pending = false;
    if (state.settled) return;
    if (!state.failed && state.remaining != 0) return;  // recovery revived it
    close_run(state);
  });
}

void Toolkit::close_run(RunState& state) {
  state.settled = true;
  if (state.wf_id >= 0) {
    if (state.broker) state.broker->end_run(state.wf_id);
    registry_.unregister_workflow(state.wf_id);
  }
  state.report.success = !state.failed;
  state.report.error = state.error;
  state.report.makespan = sim_.now() - state.start;
  if (obs_.on()) state.report.metrics = obs_.snapshot();
  build_env_reports(state);
  if (state.done) {
    const auto done = std::move(state.done);
    done(state.report);
  }
}

std::size_t Toolkit::fail_unsettled_runs() {
  std::size_t settled = 0;
  for (const auto& run : runs_) {
    RunState& state = *run;
    if (!state.async || state.settled) continue;
    if (!state.failed) {
      state.failed = true;
      state.error = "deadlock: " + std::to_string(state.remaining) +
                    " task(s) pending with no runnable events";
      finish_run_observation(state);
    }
    close_run(state);
    ++settled;
  }
  return settled;
}

std::size_t Toolkit::active_run_count() const noexcept {
  std::size_t n = 0;
  for (const auto& run : runs_)
    if (run->async && !run->settled) ++n;
  return n;
}

Toolkit::RunState* Toolkit::find_run(std::uint64_t run_id) noexcept {
  for (const auto& run : runs_)
    if (run->id == run_id) return run.get();
  return nullptr;
}

void Toolkit::launch_frontier(RunState& state) {
  const wf::Workflow& workflow = *state.workflow;
  if (state.resume_from) {
    seed_from_checkpoint(state);
    if (state.remaining == 0) {
      // The checkpoint already covered the whole DAG: the run is done the
      // moment it starts (sync callers fall straight through sim_.run()).
      finish_run_observation(state);
      settle_async(state);
    } else {
      for (wf::TaskId t = 0; t < workflow.task_count(); ++t)
        if (!state.completed[t] && state.pending_preds[t] == 0)
          dispatch(state, t,
                   {obs::forensics::CauseKind::Resume,
                    obs::forensics::kNoAttempt, state.start, 0.0});
    }
  } else {
    for (wf::TaskId t : workflow.sources())
      dispatch(state, t,
               {obs::forensics::CauseKind::RunStart,
                obs::forensics::kNoAttempt, state.start, 0.0});
  }
  if (state.ckpt_policy.trigger ==
          resilience::CheckpointPolicy::Trigger::Interval &&
      state.remaining > 0)
    arm_checkpoint_timer(state);
}

void Toolkit::seed_from_checkpoint(RunState& state) {
  const resilience::RunCheckpoint& ckpt = *state.resume_from;
  const wf::Workflow& workflow = *state.workflow;
  const std::size_t n = workflow.task_count();
  std::size_t seeded = 0;
  for (std::size_t t = 0; t < n; ++t) {
    state.retries[t] = ckpt.retries[t];
    if (ckpt.backoff_draws[t] > 0)
      state.retry.restore(t, ckpt.backoff_draws[t], ckpt.backoff_prev[t]);
    if (!ckpt.completed[t]) continue;
    state.completed[t] = 1;
    state.ever_completed[t] = 1;
    if (ckpt.placement[t] < envs_.size()) state.placement[t] = ckpt.placement[t];
    ++seeded;
  }
  // Dependency counts see only the surviving preds; the frontier is exactly
  // the incomplete tasks this leaves at zero.
  for (wf::TaskId t = 0; t < n; ++t) {
    std::size_t pending = 0;
    for (wf::TaskId p : workflow.predecessors(t))
      if (!state.completed[p]) ++pending;
    state.pending_preds[t] = pending;
  }
  state.remaining -= seeded;
  state.report.resumed_tasks = seeded;
  // Re-register the producers' pinned replicas under THIS run's workflow id
  // (DatasetIds embed it). Only producer-side pins come back — consumer-side
  // cache replicas are deliberately recomputed, so a resumed consumer pays
  // the same transfer an uninterrupted run would and cross_env_cache_hits
  // never double-counts.
  for (const resilience::ReplicaRecord& r : ckpt.replicas)
    staging_.publish(cws::edge_dataset_id(state.wf_id, r.producer, r.bytes),
                     r.bytes, r.location);
  if (obs_.on())
    obs_.count(sim_.now(), "durable.tasks_resumed", {},
               static_cast<double>(seeded));
}

resilience::RunCheckpoint Toolkit::record_checkpoint(RunState& state) {
  const wf::Workflow& workflow = *state.workflow;
  const std::size_t n = workflow.task_count();
  resilience::RunCheckpoint ckpt;
  ckpt.workflow = workflow.name();
  ckpt.task_count = n;
  ckpt.taken_at = sim_.now();
  ckpt.sequence = state.ckpt_seq + 1;
  ckpt.completed.assign(n, 0);
  ckpt.placement.assign(n, resilience::kNoEnvironment);
  ckpt.retries.assign(n, 0);
  ckpt.backoff_draws.assign(n, 0);
  ckpt.backoff_prev.assign(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    ckpt.retries[t] = state.retries[t];
    ckpt.backoff_draws[t] = state.retry.spent(t);
    ckpt.backoff_prev[t] = state.retry.prev_delay(t);
    if (!state.completed[t]) continue;
    ckpt.completed[t] = 1;
    if (state.placement[t] != kInvalidEnvironment)
      ckpt.placement[t] = state.placement[t];
  }
  // Producer-side pins only: each completed task's out-edge datasets, at the
  // winner's location, if the catalog still holds them (a site outage may
  // have dropped the location). Same-sized scatter edges share one dataset,
  // so dedup by size per producer.
  for (std::size_t t = 0; t < n; ++t) {
    if (!ckpt.completed[t] || state.placement[t] == kInvalidEnvironment)
      continue;
    const std::string loc = env_location(state.placement[t]);
    std::set<Bytes> sizes;
    for (wf::TaskId s : workflow.successors(static_cast<wf::TaskId>(t))) {
      const Bytes bytes = workflow.edge_bytes(static_cast<wf::TaskId>(t), s);
      if (bytes == 0 || !sizes.insert(bytes).second) continue;
      if (catalog_.has_replica(
              cws::edge_dataset_id(state.wf_id, static_cast<wf::TaskId>(t),
                                   bytes),
              loc))
        ckpt.replicas.push_back({static_cast<wf::TaskId>(t), bytes, loc});
    }
  }
  ckpt.ledger_high_water = ledger_.size();
  for (double busy : state.env_busy_core_seconds)
    ckpt.busy_core_seconds += busy;
  state.ckpt_seq = ckpt.sequence;
  state.completions_since_ckpt = 0;
  ++state.report.checkpoints_taken;
  if (obs_.on()) obs_.count(sim_.now(), "durable.checkpoints");
  return ckpt;
}

void Toolkit::take_checkpoint(RunState& state) {
  if (state.settled || state.failed || state.remaining == 0) return;
  const resilience::RunCheckpoint ckpt = record_checkpoint(state);
  if (state.on_checkpoint) state.on_checkpoint(ckpt);
}

void Toolkit::note_checkpoint_completion(RunState& state) {
  ++state.completions_since_ckpt;
  state.last_completion = sim_.now();
  if (state.remaining == 0) return;
  using Trigger = resilience::CheckpointPolicy::Trigger;
  if (state.ckpt_policy.trigger == Trigger::EveryNCompletions) {
    if (state.completions_since_ckpt >= state.ckpt_policy.every_n)
      take_checkpoint(state);
  } else if (state.ckpt_policy.trigger == Trigger::FrontierStability) {
    // Re-arm on every completion; the snapshot fires only if the frontier
    // stayed quiet for the whole window. Weak: a pending stability check
    // after the last strong event must not stretch the makespan.
    state.stability_check.cancel();
    const SimTime marker = state.last_completion;
    state.stability_check = sim_.schedule_weak_in(
        state.ckpt_policy.stability_window, [this, &state, marker] {
          if (state.settled || state.failed || state.remaining == 0) return;
          if (state.last_completion != marker) return;  // frontier moved
          if (state.completions_since_ckpt > 0) take_checkpoint(state);
        });
  }
}

void Toolkit::arm_checkpoint_timer(RunState& state) {
  state.ckpt_timer =
      sim_.schedule_weak_in(state.ckpt_policy.interval, [this, &state] {
        if (state.settled || state.failed || state.remaining == 0) return;
        if (state.completions_since_ckpt > 0) take_checkpoint(state);
        arm_checkpoint_timer(state);
      });
}

resilience::RunCheckpoint Toolkit::checkpoint_run(std::uint64_t run_id) {
  RunState* state = find_run(run_id);
  if (!state)
    throw std::invalid_argument("checkpoint_run: unknown run id " +
                                std::to_string(run_id));
  if (state->settled)
    throw std::logic_error("checkpoint_run: run already settled");
  return record_checkpoint(*state);
}

CompositeReport Toolkit::abort_run(std::uint64_t run_id,
                                   const std::string& reason) {
  RunState* sp = find_run(run_id);
  if (!sp)
    throw std::invalid_argument("abort_run: unknown run id " +
                                std::to_string(run_id));
  RunState& state = *sp;
  if (!state.async)
    throw std::logic_error("abort_run: run was not started with start_run");
  if (state.settled) throw std::logic_error("abort_run: run already settled");
  // Settle FIRST: the kill callbacks below still book their partial
  // execution into wasted_core_seconds (on_attempt_complete runs
  // synchronously inside kill), but every re-dispatch/retry/settle path
  // early-outs on the settled flag — including a settlement event already
  // posted this tick, which is how a settle-during-crash resolves to
  // "recovery resumes, settles exactly once".
  state.settled = true;
  state.aborted = true;
  state.failed = true;
  state.error = "aborted: " + reason;
  state.done = nullptr;
  state.ckpt_timer.cancel();
  state.stability_check.cancel();
  const std::size_t n = state.workflow->task_count();
  for (wf::TaskId t = 0; t < n; ++t) {
    state.hedge_check[t].cancel();
    state.timeout_check[t].cancel();
    state.hedge_timeout_check[t].cancel();
    // Kill before releasing the registry id: the completion callbacks tell
    // the broker task_finished under a still-valid wf_id.
    if (state.job_of[t] != 0 && state.placement[t] != kInvalidEnvironment)
      envs_[state.placement[t]].rm->kill(state.job_of[t], reason);
    state.job_of[t] = 0;
    if (state.hedge_job_of[t] != 0 &&
        state.hedge_env[t] != kInvalidEnvironment)
      envs_[state.hedge_env[t]].rm->kill(state.hedge_job_of[t], reason);
    state.hedge_job_of[t] = 0;
  }
  if (obs_.on()) obs_.count(sim_.now(), "durable.runs_aborted");
  finish_run_observation(state);
  close_run(state);
  state.wf_id = -1;  // stragglers must not reach a reused registry id
  return state.report;
}

void Toolkit::arm_chaos() {
  if (!chaos_) return;
  std::vector<resilience::ChaosTarget> targets;
  for (EnvironmentId e = 0; e < envs_.size(); ++e)
    targets.push_back({e, envs_[e].cluster->node_count(),
                       envs_[e].kind == EnvironmentKind::Cloud});
  std::vector<std::pair<std::string, std::string>> links;
  for (EnvironmentId a = 0; a < envs_.size(); ++a)
    for (EnvironmentId b = a + 1; b < envs_.size(); ++b)
      links.emplace_back(env_location(a), env_location(b));
  chaos_->arm(sim_, targets, links, obs_.on() ? &obs_ : nullptr);
}

void Toolkit::dispatch(RunState& state, wf::TaskId task,
                       obs::forensics::Cause cause) {
  HHC_PROF_SCOPE("toolkit.dispatch");
  if (state.settled) return;  // straggler event from an already-delivered run
  EnvironmentId env_id;
  if (state.broker) {
    federation::SiteId site;
    try {
      site = state.broker->place(state.wf_id, task, sim_.now());
    } catch (const federation::BrokerError& e) {
      // No capable healthy site left (everything drained/unhealthy): the
      // run cannot make progress on this task.
      state.failed = true;
      state.error = e.what();
      finish_run_observation(state);
      settle_async(state);
      return;
    }
    env_id = state.broker->site(site).environment;
    if (state.placement[task] != kInvalidEnvironment &&
        state.placement[task] != env_id)
      ++state.report.tasks_rerouted;
    state.site_of[task] = site;
  } else {
    env_id = (*state.assignment)[task];
  }
  state.placement[task] = env_id;

  obs::forensics::AttemptId led = obs::forensics::kNoAttempt;
  if (state.record_forensics) {
    led = ledger_.open_attempt(task, state.workflow->task(task).name,
                               state.retries[task], /*hedge=*/false, cause,
                               sim_.now(), envs_[env_id].name);
    state.ledger_of[task] = led;
  }

  stage_inputs(state, task, env_id, led,
               [this, &state, task, led](bool ok, const std::string& error) {
                 if (ok) {
                   ledger_.staged(led, sim_.now());
                   submit_task(state, task);
                 } else {
                   on_staging_failed(state, task, error);
                 }
               });
}

void Toolkit::stage_inputs(RunState& state, wf::TaskId task,
                           EnvironmentId env_id,
                           obs::forensics::AttemptId led,
                           std::function<void(bool, const std::string&)> done) {
  HHC_PROF_SCOPE("toolkit.stage_inputs");
  const wf::Workflow& workflow = *state.workflow;

  // Cross-environment inputs stage through the fabric before the job is
  // submitted. Each edge is a content-addressed dataset: the scheduler
  // resolves cache hits, coalesces with in-flight copies, and otherwise
  // picks the cheapest replica under current link contention.
  std::vector<std::pair<wf::TaskId, Bytes>> cross;
  for (wf::TaskId p : workflow.predecessors(task)) {
    const Bytes bytes = workflow.edge_bytes(p, task);
    if (bytes > 0 && state.placement[p] != env_id) cross.emplace_back(p, bytes);
  }

  if (cross.empty()) {
    // Preserve the pre-fabric event ordering: submission happens on the
    // next event, never inline from the completion callback.
    sim_.post([done = std::move(done)] { done(true, {}); });
    return;
  }

  // Join: the attempt proceeds only when every input arrived; a single
  // failed edge (no reachable replica, aborted transfer) fails the join and
  // routes into the resilience plane instead of throwing mid-simulation.
  struct Join {
    std::size_t pending = 0;
    bool failed = false;
    std::string error;
    std::function<void(bool, const std::string&)> done;
  };
  auto join = std::make_shared<Join>();
  join->pending = cross.size();
  join->done = std::move(done);

  const std::string dest = env_location(env_id);
  const std::string& env_name = envs_[env_id].name;
  const obs::TraceContext trace =
      state.trace.active()
          ? state.trace.for_attempt(static_cast<std::int64_t>(task),
                                    static_cast<int>(state.retries[task]))
          : obs::TraceContext{};
  for (const auto& [producer, bytes] : cross) {
    const auto id = cws::edge_dataset_id(state.wf_id, producer, bytes);
    staging_.stage(id, dest, trace, [this, &state, join, led,
                                     env_name](const fabric::StageResult& r) {
      if (!r.ok) {
        join->failed = true;
        if (join->error.empty()) join->error = r.error;
      } else if (r.source == fabric::StageSource::Local ||
                 r.source == fabric::StageSource::Coalesced) {
        ++state.report.cross_env_cache_hits;
        state.report.cross_env_bytes_saved += r.bytes;
        ledger_.add_staged(led, 0);
      } else {
        ++state.report.cross_env_transfers;
        state.report.cross_env_bytes += r.bytes;
        state.report.transfer_seconds += r.elapsed;
        obs_.count(sim_.now(), "toolkit.cross_env_transfers");
        ledger_.add_staged(led, r.bytes);
        // Streaming anomaly feed: effective WAN throughput into the
        // destination environment. A degraded inbound link shows up here
        // before any job ever fails.
        if (r.elapsed > 0)
          monitor_.observe("stage_throughput", env_name, sim_.now(),
                           static_cast<double>(r.bytes) / r.elapsed);
      }
      if (--join->pending == 0) join->done(!join->failed, join->error);
    });
  }
}

void Toolkit::stamp_trace(const RunState& state, obs::SpanId span,
                          std::int64_t task, int attempt, bool hedge) {
  if (!state.trace.active() || span == obs::kNoSpan) return;
  if (state.trace.submission != obs::kNoTraceId)
    obs_.span_attr(span, "sub",
                   static_cast<std::int64_t>(state.trace.submission));
  obs_.span_attr(span, "run", static_cast<std::int64_t>(state.trace.run));
  if (task >= 0) obs_.span_attr(span, "task", task);
  if (attempt >= 0)
    obs_.span_attr(span, "attempt", static_cast<std::int64_t>(attempt));
  if (hedge) obs_.span_attr(span, "hedge", true);
}

void Toolkit::submit_task(RunState& state, wf::TaskId task) {
  if (state.settled) return;  // aborted while this task's inputs staged
  if (state.broker &&
      !state.broker->available(state.site_of[task], sim_.now())) {
    // The site drained or crashed while this task's inputs were staging:
    // re-broker instead of submitting into a queue that will never run it.
    const obs::forensics::AttemptId prev = state.ledger_of[task];
    if (prev != obs::forensics::kNoAttempt) {
      obs::forensics::TaskLedger::Settle s;
      s.finish = sim_.now();
      s.outcome = obs::forensics::AttemptOutcome::Rerouted;
      s.detail = "site unavailable at submit";
      ledger_.close(prev, s);
    }
    dispatch(state, task,
             {obs::forensics::CauseKind::Reroute, prev, sim_.now(), 0.0});
    return;
  }
  submit_attempt(state, task, state.placement[task], /*hedge=*/false);
}

void Toolkit::submit_attempt(RunState& state, wf::TaskId task,
                             EnvironmentId env_id, bool hedge) {
  HHC_PROF_SCOPE("toolkit.submit_attempt");
  Environment& env = envs_[env_id];
  const wf::TaskSpec& spec = state.workflow->task(task);

  cluster::JobRequest req;
  req.name = spec.name;
  req.kind = spec.kind;
  req.resources = spec.resources;
  req.runtime = spec.base_runtime;
  req.workflow_id = state.wf_id;
  req.task_id = task;
  req.input_bytes = state.workflow->total_input_bytes(task);
  req.output_bytes = spec.output_bytes;
  if (auto est = predictor_->predict(req)) req.walltime_estimate = *est;

  if (chaos_) {
    const std::uint32_t attempt =
        (hedge ? 100000u : 0u) + state.retries[task];
    const resilience::TaskFault fault = chaos_->task_fault(task, attempt);
    if (fault.hang) {
      // Never finishes on its own; the timeout watchdog is the rescue.
      req.runtime *= 1e6;
    } else if (fault.runtime_factor != 1.0) {
      req.runtime *= fault.runtime_factor;
    }
  }

  const cluster::JobId jid = env.rm->submit(
      req,
      [this, &state, task, hedge](const cluster::JobRecord& rec) {
        on_attempt_complete(state, task, rec, hedge);
      },
      [this, &state, task, hedge](const cluster::JobRecord& rec) {
        arm_watchdogs(state, task, rec, hedge);
      });
  (hedge ? state.hedge_job_of : state.job_of)[task] = jid;
  ledger_.submitted((hedge ? state.hedge_ledger_of : state.ledger_of)[task],
                    sim_.now());
}

void Toolkit::arm_watchdogs(RunState& state, wf::TaskId task,
                            const cluster::JobRecord& rec, bool hedge) {
  ledger_.started((hedge ? state.hedge_ledger_of : state.ledger_of)[task],
                  rec.start_time, rec.request.resources.total_cores());
  const cluster::JobId jid = rec.id;
  const double speed = std::max(1e-9, rec.speed);
  const double est = rec.request.walltime_estimate;
  const EnvironmentId env_id =
      hedge ? state.hedge_env[task] : state.placement[task];

  // Timeout watchdog: a hung (or chaos-slowed beyond reason) attempt is
  // killed once it exceeds timeout_factor x the predictor's estimate.
  if (config_.resilience.timeout_factor > 0.0 && est > 0.0) {
    const SimTime deadline =
        rec.start_time + config_.resilience.timeout_factor * est / speed;
    auto handle = sim_.schedule_at(
        deadline, [this, &state, task, jid, env_id, hedge] {
          const cluster::JobId current =
              hedge ? state.hedge_job_of[task] : state.job_of[task];
          if (current != jid || state.completed[task]) return;
          if (obs_.on())
            obs_.count(sim_.now(), "resilience.timeout_kills",
                       envs_[env_id].name);
          envs_[env_id].rm->kill(
              jid, "timeout: attempt exceeded " +
                       std::to_string(config_.resilience.timeout_factor) +
                       "x walltime estimate");
        });
    (hedge ? state.hedge_timeout_check : state.timeout_check)[task] = handle;
  }

  // Straggler watchdog (primary attempts only): once the attempt's
  // normalized elapsed time clears the detector's threshold, race a
  // speculative copy against it.
  if (!hedge && config_.resilience.hedging.enabled && !state.hedged[task]) {
    const auto threshold = detector_.threshold(
        rec.request.kind,
        est > 0.0 ? std::optional<double>(est) : std::nullopt);
    if (threshold) {
      state.hedge_check[task] = sim_.schedule_at(
          rec.start_time + *threshold / speed, [this, &state, task, jid] {
            if (state.job_of[task] != jid || state.completed[task] ||
                state.hedged[task])
              return;
            launch_hedge(state, task);
          });
    }
  }
}

void Toolkit::launch_hedge(RunState& state, wf::TaskId task) {
  if (state.settled || state.failed || state.completed[task] ||
      state.hedged[task] || state.job_of[task] == 0)
    return;
  EnvironmentId env_id;
  federation::SiteId site = federation::kInvalidSite;
  if (state.broker) {
    site = state.broker->place_hedge(state.wf_id, task, sim_.now(),
                                     state.site_of[task]);
    if (site == federation::kInvalidSite) return;  // nowhere to hedge
    env_id = state.broker->site(site).environment;
  } else {
    env_id = state.placement[task];  // same env, different node/slot
  }
  state.hedged[task] = 1;
  state.hedge_env[task] = env_id;
  state.hedge_site[task] = site;
  ++state.report.tasks_hedged;
  if (obs_.on())
    obs_.count(sim_.now(), "resilience.hedges_launched", envs_[env_id].name);

  obs::forensics::AttemptId led = obs::forensics::kNoAttempt;
  if (state.record_forensics) {
    led = ledger_.open_attempt(
        task, state.workflow->task(task).name, state.retries[task],
        /*hedge=*/true,
        {obs::forensics::CauseKind::Hedge, state.ledger_of[task], sim_.now(),
         0.0},
        sim_.now(), envs_[env_id].name);
    state.hedge_ledger_of[task] = led;
  }

  stage_inputs(state, task, env_id, led,
               [this, &state, task, env_id, led](bool ok, const std::string&) {
                 const auto stand_down = [&](const char* why) {
                   state.hedged[task] = 0;
                   if (led == obs::forensics::kNoAttempt) return;
                   obs::forensics::TaskLedger::Settle s;
                   s.finish = sim_.now();
                   s.outcome = obs::forensics::AttemptOutcome::Abandoned;
                   s.detail = why;
                   ledger_.close(led, s);
                 };
                 // The primary may have settled (or failed into a retry)
                 // while the hedge's inputs staged; abandon quietly.
                 if (state.completed[task] || state.failed ||
                     state.job_of[task] == 0) {
                   stand_down("primary settled before hedge staged");
                   return;
                 }
                 if (!ok) {
                   stand_down("hedge staging failed; primary lives");
                   return;
                 }
                 ledger_.staged(led, sim_.now());
                 submit_attempt(state, task, env_id, /*hedge=*/true);
               });
}

wf::TaskId Toolkit::record_constituents(RunState& state, wf::TaskId task,
                                        const cluster::JobRecord& rec,
                                        const Environment& env) {
  const wf::Workflow& orig = state.rewrites->original();
  const std::vector<wf::TaskId>& members = state.rewrites->constituents(task);
  const bool attempt_failed = rec.state != cluster::JobState::Completed;

  // An attempt that never reached a node leaves one aggregate record, exactly
  // like the plain path: there is no interval to apportion.
  if (rec.allocation.empty()) {
    cws::TaskProvenance p;
    p.task_id = task;
    p.task_name = rec.request.name;
    p.kind = rec.request.kind;
    p.input_bytes = rec.request.input_bytes;
    p.output_bytes = rec.request.output_bytes;
    p.submit_time = rec.submit_time;
    p.start_time = rec.start_time;
    p.finish_time = rec.finish_time;
    p.node_speed = rec.speed;
    p.failed = attempt_failed;
    p.environment = env.name;
    provenance_.record(p);
    if (!p.failed) predictor_->observe(p);
    return wf::kInvalidTask;
  }
  const std::string node_class =
      env.cluster->node_class(rec.allocation.claims[0].node).name;

  // Apportion the attempt interval by the constituents' base runtimes (equal
  // shares when the originals carry none).
  std::vector<double> weight;
  weight.reserve(members.size());
  double total = 0.0;
  for (wf::TaskId c : members) {
    weight.push_back(orig.task(c).base_runtime);
    total += weight.back();
  }
  if (total <= 0.0) {
    weight.assign(members.size(), 1.0);
    total = static_cast<double>(members.size());
  }

  const auto record_one = [&](wf::TaskId c, SimTime start, SimTime finish,
                              bool failed) {
    const wf::TaskSpec& spec = orig.task(c);
    cws::TaskProvenance p;
    p.task_id = c;
    p.task_name = spec.name;
    p.kind = spec.kind;
    p.input_bytes = orig.total_input_bytes(c);
    p.output_bytes = spec.output_bytes;
    p.submit_time = rec.submit_time;
    p.start_time = start;
    p.finish_time = finish;
    p.node_speed = rec.speed;
    p.failed = failed;
    p.environment = env.name;
    p.node_class = node_class;
    provenance_.record(p);
    if (!failed) predictor_->observe(p);
  };

  const double elapsed = rec.finish_time - rec.start_time;
  if (!attempt_failed) {
    // Completed: split the measured interval proportionally; the last
    // boundary is exactly the job's finish time so the pieces tile it.
    SimTime cursor = rec.start_time;
    double cum = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      cum += weight[i];
      const SimTime finish = (i + 1 == members.size())
                                 ? rec.finish_time
                                 : rec.start_time + elapsed * (cum / total);
      record_one(members[i], cursor, finish, false);
      cursor = finish;
    }
    return wf::kInvalidTask;
  }

  // Died mid-run: constituents are sequential, so walk their nominal
  // durations at the attempt's node speed. Everything that fit inside the
  // elapsed interval completed; the constituent holding the failure instant
  // takes the blame; anything after it never started and leaves no record.
  const double speed = rec.speed > 0.0 ? rec.speed : 1.0;
  SimTime cursor = rec.start_time;
  double cum = 0.0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const double d = weight[i] / speed;
    if (cum + d <= elapsed && i + 1 < members.size()) {
      record_one(members[i], cursor, cursor + d, false);
      cursor += d;
      cum += d;
      continue;
    }
    record_one(members[i], cursor, rec.finish_time, true);
    return members[i];
  }
  return members.back();  // unreachable: the loop always blames someone
}

void Toolkit::on_attempt_complete(RunState& state, wf::TaskId task,
                                  const cluster::JobRecord& rec, bool hedge) {
  HHC_PROF_SCOPE("toolkit.on_attempt_complete");
  const EnvironmentId env_id =
      hedge ? state.hedge_env[task] : state.placement[task];
  Environment& env = envs_[env_id];
  if (hedge) {
    state.hedge_job_of[task] = 0;
    state.hedge_timeout_check[task].cancel();
  } else {
    state.job_of[task] = 0;
    state.hedge_check[task].cancel();
    state.timeout_check[task].cancel();
  }

  const obs::forensics::AttemptId led =
      (hedge ? state.hedge_ledger_of : state.ledger_of)[task];
  const auto settle_ledger = [&](obs::forensics::AttemptOutcome outcome,
                                 bool winner, const std::string& detail) {
    if (led == obs::forensics::kNoAttempt) return;
    obs::forensics::TaskLedger::Settle s;
    s.outcome = outcome;
    s.winner = winner;
    s.ran = !rec.allocation.empty();
    // Ran attempts carry the job record's authoritative interval (the waste
    // mirror depends on it); queue-cancelled ones settle at the cancel time.
    s.finish = s.ran ? rec.finish_time : sim_.now();
    s.submit = rec.submit_time;
    if (s.ran) {
      s.start = rec.start_time;
      s.cores = rec.request.resources.total_cores();
    }
    s.detail = detail;
    ledger_.close(led, s);
  };

  // Cancelled jobs either never ran (a drain pulled them out of the queue so
  // the broker can re-place them) or were killed mid-run (hedge loser,
  // timeout). Neither leaves provenance, a span, or a queue-wait
  // observation — only the failure/reroute/waste accounting below.
  const bool cancelled = rec.state == cluster::JobState::Cancelled;
  const bool superseded =
      cancelled && rec.failure_reason.find("superseded") != std::string::npos;
  // When the attempt ran a fused/clustered task and failed, this names the
  // constituent that was executing when the attempt died (blame target).
  wf::TaskId blamed = wf::kInvalidTask;
  if (!cancelled) {
    if (state.rewrites && state.rewrites->fused(task)) {
      blamed = record_constituents(state, task, rec, env);
    } else {
      cws::TaskProvenance p;
      p.task_id = task;
      p.task_name = rec.request.name;
      p.kind = rec.request.kind;
      p.input_bytes = rec.request.input_bytes;
      p.output_bytes = rec.request.output_bytes;
      p.submit_time = rec.submit_time;
      p.start_time = rec.start_time;
      p.finish_time = rec.finish_time;
      p.node_speed = rec.speed;
      p.failed = rec.state != cluster::JobState::Completed;
      p.environment = env.name;
      if (!rec.allocation.empty())
        p.node_class =
            env.cluster->node_class(rec.allocation.claims[0].node).name;
      provenance_.record(p);
      if (!p.failed) predictor_->observe(p);
    }
    const bool attempt_failed = rec.state != cluster::JobState::Completed;

    if (obs_.on()) {
      // Retroactive task span: the job record bounds the real interval.
      const obs::SpanId span =
          obs_.begin_span(rec.start_time, "task", rec.request.name,
                          state.workflow_span);
      obs_.span_attr(span, "kind", rec.request.kind);
      obs_.span_attr(span, "env", env.name);
      stamp_trace(state, span, static_cast<std::int64_t>(task),
                  static_cast<int>(state.retries[task]), hedge);
      obs_.end_span(rec.finish_time, span);
      obs_.count(sim_.now(), attempt_failed ? "toolkit.tasks_failed"
                                            : "toolkit.tasks_completed");
    }

    if (state.broker) {
      const federation::SiteId site =
          hedge ? state.hedge_site[task] : state.site_of[task];
      if (site != federation::kInvalidSite)
        state.broker->task_started(site, rec.start_time - rec.submit_time,
                                   sim_.now());
    }
    // Streaming anomaly feed: per-attempt batch-queue wait by environment.
    monitor_.observe("queue_wait", env.name, sim_.now(),
                     rec.start_time - rec.submit_time);
  }
  if (state.broker) state.broker->task_finished(state.wf_id, task);

  if (superseded) {
    // The race's loser: the other copy already won. Its partial execution is
    // the price of hedging — account it and stop.
    if (!rec.allocation.empty())
      state.report.wasted_core_seconds +=
          (rec.finish_time - rec.start_time) *
          rec.request.resources.total_cores();
    settle_ledger(obs::forensics::AttemptOutcome::Superseded, false,
                  rec.failure_reason);
    return;
  }

  // Chaos corrupt-output fault: the attempt completed, but its output fails
  // validation at stage-out, so downstream must not consume it.
  bool success = rec.state == cluster::JobState::Completed;
  std::string reason = rec.failure_reason;
  bool corrupt = false;
  if (success && chaos_) {
    const std::uint32_t attempt =
        (hedge ? 100000u : 0u) + state.retries[task];
    if (chaos_->task_fault(task, attempt).corrupt) {
      success = false;
      corrupt = true;
      reason = "corrupt output detected at stage-out";
      if (obs_.on())
        obs_.count(sim_.now(), "resilience.corrupt_outputs", env.name);
    }
  }

  // A fused attempt that died mid-run is blamed on the constituent that was
  // executing; the ledger detail and failure classification both carry it.
  // Corrupt outputs are detected at stage-out, after every constituent ran,
  // so they carry no constituent blame.
  if (!success && !corrupt && blamed != wf::kInvalidTask) {
    reason += " (constituent '" +
              state.rewrites->original().task(blamed).name + "')";
    ++state.report.constituent_failures;
    if (obs_.on())
      obs_.count(sim_.now(), "opt.constituent_failures",
                 state.rewrites->original().task(blamed).kind);
  }

  if (success) {
    if (state.completed[task]) {
      // Belt and braces: race already won. A completion that arrives after
      // the winner settled counts toward neither busy nor waste.
      settle_ledger(obs::forensics::AttemptOutcome::Completed, false, {});
      return;
    }
    settle_ledger(obs::forensics::AttemptOutcome::Completed, true, {});
    if (state.rewrites && state.rewrites->fused(task)) {
      ++state.report.fused_tasks_run;
      state.report.constituents_completed +=
          state.rewrites->constituents(task).size();
      if (obs_.on()) obs_.count(sim_.now(), "opt.fused_attempts", env.name);
    }
    const bool recompute = state.ever_completed[task] != 0;
    state.completed[task] = 1;
    state.ever_completed[task] = 1;
    state.in_recovery[task] = 0;
    state.retry.reset(task);
    detector_.observe(rec.request.kind,
                      (rec.finish_time - rec.start_time) * rec.speed);

    // Settle the race: kill the outstanding copy, if any.
    if (hedge) {
      ++state.report.hedges_won;
      if (obs_.on()) obs_.count(sim_.now(), "resilience.hedges_won", env.name);
      if (state.job_of[task] != 0)
        envs_[state.placement[task]].rm->kill(state.job_of[task],
                                              "superseded by hedge");
    } else if (state.hedge_job_of[task] != 0) {
      envs_[state.hedge_env[task]].rm->kill(state.hedge_job_of[task],
                                            "superseded by primary");
    }

    ++state.env_tasks_run[env_id];
    state.env_busy_core_seconds[env_id] +=
        (rec.finish_time - rec.start_time) * rec.request.resources.total_cores();

    // The task's outputs now exist at the winner's environment: publish each
    // out-edge dataset so consumers (wherever they run) can stage from here —
    // and so same-sized scatter edges resolve to one dataset with one replica.
    const std::string loc = env_location(env_id);
    for (wf::TaskId s : state.workflow->successors(task)) {
      const Bytes bytes = state.workflow->edge_bytes(task, s);
      if (bytes > 0)
        staging_.publish(cws::edge_dataset_id(state.wf_id, task, bytes), bytes,
                         loc);
    }

    --state.remaining;
    if (state.ckpt_policy.enabled()) note_checkpoint_completion(state);
    if (state.remaining == 0) {
      finish_run_observation(state);
      settle_async(state);
    }
    for (wf::TaskId s : state.workflow->successors(task)) {
      if (state.completed[s]) continue;
      // A recompute only releases successors that are part of a recovery:
      // everyone else's pending count already credits this task's first
      // completion.
      if (recompute && !state.in_recovery[s]) continue;
      if (state.pending_preds[s] > 0 && --state.pending_preds[s] == 0)
        dispatch(state, s,
                 {obs::forensics::CauseKind::Dependency, led, sim_.now(), 0.0});
    }
    return;
  }

  // Failure path.
  ++state.report.task_failures;
  if (!rec.allocation.empty())
    state.report.wasted_core_seconds +=
        (rec.finish_time - rec.start_time) * rec.request.resources.total_cores();
  settle_ledger(cancelled ? obs::forensics::AttemptOutcome::Cancelled
                          : obs::forensics::AttemptOutcome::Failed,
                false, reason);

  // If the other copy of a hedge race is still in flight, the task is not
  // lost yet — let the survivor decide the outcome.
  if (hedge) {
    if (state.job_of[task] != 0) return;
  } else if (state.hedge_job_of[task] != 0) {
    return;
  }

  if (state.broker && rec.state == cluster::JobState::Failed) {
    const federation::SiteId site =
        hedge ? state.hedge_site[task] : state.site_of[task];
    if (site != federation::kInvalidSite)
      state.broker->report_failure(site, sim_.now());
  }

  const resilience::FailureClass cls = corrupt
                                           ? resilience::FailureClass::CorruptOutput
                                           : resilience::classify(rec);
  handle_task_failure(state, task, cls,
                      "task '" + rec.request.name + "' failed: " + reason, led);
}

std::size_t Toolkit::retry_budget(const RunState& state,
                                  resilience::FailureClass cls) const {
  const auto& per = config_.resilience.backoff.per_class_attempts;
  if (const auto it = per.find(cls); it != per.end()) return it->second;
  // Federated runs keep the broker's budget (the pre-resilience contract);
  // the static path gets the resilience config's budget (default 0, i.e.
  // terminal on first failure, exactly as before).
  if (state.broker) return state.broker->config().max_task_retries;
  return config_.resilience.static_task_retries;
}

void Toolkit::handle_task_failure(RunState& state, wf::TaskId task,
                                  resilience::FailureClass cls,
                                  const std::string& error,
                                  obs::forensics::AttemptId from) {
  HHC_PROF_SCOPE("toolkit.handle_task_failure");
  if (state.settled) return;          // run already delivered its report
  if (state.completed[task]) return;  // a raced copy already succeeded
  if (state.retries[task] < retry_budget(state, cls)) {
    ++state.retries[task];
    ++state.report.task_resubmissions;
    state.hedged[task] = 0;  // the next attempt may hedge again
    if (obs_.on()) {
      if (state.broker)
        obs_.count(sim_.now(), "federation.task_resubmissions",
                   envs_[state.placement[task]].name);
      obs_.count(sim_.now(), "resilience.task_retries",
                 resilience::to_string(cls));
    }
    const SimTime failed_at = sim_.now();
    const SimTime delay = state.retry.next_delay(task);
    if (delay <= 0.0) {
      // Legacy cadence: re-broker/resubmit on the next event — by then
      // report_failure's hold-down has excluded the failing site, so a
      // federated placement lands elsewhere.
      sim_.post([this, &state, task, from, failed_at] {
        dispatch(state, task,
                 {obs::forensics::CauseKind::Retry, from, failed_at, 0.0});
      });
    } else {
      if (obs_.on())
        obs_.count(sim_.now(), "resilience.backoff_waits",
                   resilience::to_string(cls));
      sim_.schedule_in(delay, [this, &state, task, from, failed_at, delay] {
        if (!state.failed && !state.completed[task])
          dispatch(state, task,
                   {obs::forensics::CauseKind::Retry, from, failed_at, delay});
      });
    }
    return;
  }
  state.failed = true;
  state.error = error;
  finish_run_observation(state);
  settle_async(state);
}

void Toolkit::on_staging_failed(RunState& state, wf::TaskId task,
                                const std::string& error) {
  if (state.settled || state.failed || state.completed[task]) return;
  ++state.report.task_failures;
  if (obs_.on())
    obs_.count(sim_.now(), "resilience.staging_failures",
               envs_[state.placement[task]].name);
  const obs::forensics::AttemptId from = state.ledger_of[task];
  if (from != obs::forensics::kNoAttempt) {
    obs::forensics::TaskLedger::Settle s;
    s.finish = sim_.now();
    s.outcome = obs::forensics::AttemptOutcome::StagingFailed;
    s.detail = error;
    ledger_.close(from, s);
  }
  if (config_.resilience.lineage_recovery) {
    const auto cone = resilience::recovery_cone(
        *state.workflow, state.wf_id, task,
        [this](const fabric::DatasetId& id) {
          return catalog_.replica_count(id) > 0;
        });
    if (!cone.empty()) {
      trigger_recovery(state, task, cone, from);
      return;
    }
  }
  handle_task_failure(state, task, resilience::FailureClass::Staging,
                      "task '" + state.workflow->task(task).name +
                          "' failed: " + error,
                      from);
}

void Toolkit::trigger_recovery(RunState& state, wf::TaskId task,
                               const std::vector<wf::TaskId>& cone,
                               obs::forensics::AttemptId from) {
  const wf::Workflow& workflow = *state.workflow;

  // Mark the cone for re-execution. Members already mid-recompute (an
  // overlapping recovery claimed them) keep their in-flight state.
  std::vector<wf::TaskId> fresh;
  for (wf::TaskId c : cone) {
    if (state.in_recovery[c] && !state.completed[c]) continue;
    state.in_recovery[c] = 1;
    state.completed[c] = 0;
    fresh.push_back(c);
  }
  state.in_recovery[task] = 1;  // the starved task rides the same episode
  state.remaining += fresh.size();
  state.report.recovery_recomputed_tasks += fresh.size();
  if (obs_.on()) {
    obs_.count(sim_.now(), "resilience.recovery_cones");
    obs_.count(sim_.now(), "resilience.recovery_tasks", {},
               static_cast<double>(fresh.size()));
  }

  // Dependency counts within the episode: a predecessor gates re-execution
  // iff it has not (or no longer) completed — resident ancestors outside the
  // cone stay done, which is the whole point of lineage-minimal recovery.
  const auto pending_of = [&](wf::TaskId t) {
    std::size_t pending = 0;
    for (wf::TaskId p : workflow.predecessors(t))
      if (!state.completed[p]) ++pending;
    return pending;
  };
  for (wf::TaskId c : fresh) state.pending_preds[c] = pending_of(c);
  state.pending_preds[task] = pending_of(task);

  const SimTime triggered_at = sim_.now();
  for (wf::TaskId c : fresh)
    if (state.pending_preds[c] == 0)
      sim_.post([this, &state, c, from, triggered_at] {
        dispatch(state, c,
                 {obs::forensics::CauseKind::Recovery, from, triggered_at,
                  0.0});
      });
  if (state.pending_preds[task] == 0)
    sim_.post([this, &state, task, from, triggered_at] {
      dispatch(state, task,
               {obs::forensics::CauseKind::Recovery, from, triggered_at, 0.0});
    });
}

void Toolkit::drain_site(EnvironmentId id, bool kill_running) {
  Environment& env = envs_.at(id);
  federation::Broker* drained = nullptr;  // one broker usually serves all runs
  for (const auto& run : runs_) {
    RunState& state = *run;
    if (state.settled || !state.broker) continue;
    if (state.broker != drained) {
      const federation::SiteId site = state.broker->site_for_environment(id);
      if (site != federation::kInvalidSite) state.broker->drain(site);
      if (obs_.on()) obs_.count(sim_.now(), "federation.site_drains", env.name);
      drained = state.broker;
    }
    // Pull queued federated jobs back out so they re-broker immediately;
    // cancel() fires their callbacks synchronously, which post re-dispatch.
    for (wf::TaskId t = 0; t < state.workflow->task_count(); ++t) {
      if (state.placement[t] == id && state.job_of[t] != 0)
        env.rm->cancel(state.job_of[t]);
      if (state.hedge_env[t] == id && state.hedge_job_of[t] != 0)
        env.rm->cancel(state.hedge_job_of[t]);
    }
  }
  if (kill_running)
    for (cluster::NodeId n = 0;
         n < static_cast<cluster::NodeId>(env.cluster->node_count()); ++n)
      if (env.cluster->node(n).up) env.rm->fail_node(n);
}

void Toolkit::restore_site(EnvironmentId id) {
  Environment& env = envs_.at(id);
  for (cluster::NodeId n = 0;
       n < static_cast<cluster::NodeId>(env.cluster->node_count()); ++n)
    if (!env.cluster->node(n).up) env.cluster->set_node_up(n);
  federation::Broker* undrained = nullptr;
  for (const auto& run : runs_) {
    RunState& state = *run;
    if (state.settled || !state.broker || state.broker == undrained) continue;
    const federation::SiteId site = state.broker->site_for_environment(id);
    if (site != federation::kInvalidSite) state.broker->undrain(site);
    undrained = state.broker;
  }
  if (obs_.on()) obs_.count(sim_.now(), "federation.site_restores", env.name);
  env.rm->kick();
}

void Toolkit::attach_chaos(resilience::ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_) install_chaos_hooks();
}

void Toolkit::install_chaos_hooks() {
  resilience::ChaosHooks hooks;
  hooks.fail_node = [this](std::size_t env, std::size_t node,
                           SimTime repair_after) {
    if (env >= envs_.size() || node >= envs_[env].cluster->node_count()) return;
    if (!envs_[env].cluster->node(static_cast<cluster::NodeId>(node)).up) return;
    envs_[env].rm->fail_node(static_cast<cluster::NodeId>(node), repair_after);
  };
  hooks.preempt_node = [this](std::size_t env, std::size_t node) {
    if (env >= envs_.size() || node >= envs_[env].cluster->node_count()) return;
    if (!envs_[env].cluster->node(static_cast<cluster::NodeId>(node)).up) return;
    envs_[env].rm->fail_node(
        static_cast<cluster::NodeId>(node), 0.0,
        "spot instance preempted (node " + std::to_string(node) + ")");
  };
  hooks.set_link_factor = [this](const std::string& a, const std::string& b,
                                 double factor, SimTime restore_after) {
    fabric::Link* link = topology_.find_link(a, b);
    if (!link) return;
    link->set_rate_factor(factor);
    // Weak event: a restore after the workflow's last task must not keep the
    // simulation alive just to heal an unused link.
    if (restore_after > 0.0)
      sim_.schedule_weak_in(restore_after,
                            [link] { link->set_rate_factor(1.0); });
  };
  hooks.site_outage = [this](std::size_t env, SimTime restore_after) {
    if (env >= envs_.size()) return;
    drain_site(env, /*kill_running=*/true);
    // The site's storage goes dark with it: purge its cached replicas and
    // every catalog entry pointing at it. Downstream consumers whose only
    // replica lived here now fail staging — the lineage-recovery trigger.
    caches_[env]->clear();
    catalog_.drop_location(env_location(env));
    if (restore_after > 0.0)
      sim_.schedule_weak_in(restore_after,
                            [this, env] { restore_site(env); });
  };
  hooks.abort_transfers = [this] {
    staging_.abort_in_flight("transfer aborted by chaos");
  };
  chaos_->set_hooks(std::move(hooks));
}

void Toolkit::finish_run_observation(RunState& state) {
  if (!obs_.on()) return;
  // The run is over (or doomed): close the workflow span and stop the
  // utilization samplers so their reschedule chain doesn't hold the event
  // loop open.
  obs_.end_span(sim_.now(), state.workflow_span);
  for (const auto& env : envs_) obs_.samplers().stop("util." + env.name);
}

}  // namespace hhc::core
