#include "entk/app_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/log.hpp"

namespace hhc::entk {

namespace {
constexpr const char* kOccupancySampler = "entk.pilot_occupancy";
}  // namespace

AppManager::AppManager(sim::Simulation& sim, cluster::Cluster& pilot,
                       EntkConfig config, Rng rng)
    : sim_(sim), pilot_(pilot), config_(config), rng_(rng),
      retry_(config.retry) {
  if (config_.scheduling_rate <= 0 || config_.launching_rate <= 0)
    throw std::invalid_argument("AppManager: rates must be positive");
}

void AppManager::add_pipeline(PipelineDesc pipeline) {
  if (started_) throw std::logic_error("AppManager: cannot add pipelines after start");
  pipelines_.push_back(std::move(pipeline));
}

void AppManager::use_observer(obs::Observer* obs) {
  if (started_) throw std::logic_error("AppManager: attach observer before start");
  obs_ = obs ? obs : &own_obs_;
}

const sim::Trace& AppManager::trace() const {
  const obs::SpanTracker& spans = obs_->spans();
  if (trace_cache_version_ != spans.version()) {
    trace_cache_ = spans.replay_trace();
    trace_cache_version_ = spans.version();
  }
  return trace_cache_;
}

void AppManager::start() {
  if (started_) throw std::logic_error("AppManager: already started");
  started_ = true;
  current_stage_.assign(pipelines_.size(), 0);
  stage_remaining_.assign(pipelines_.size(), 0);
  stage_failed_.assign(pipelines_.size(), 0);
  pipeline_spans_.assign(pipelines_.size(), obs::kNoSpan);
  stage_spans_.assign(pipelines_.size(), obs::kNoSpan);
  if (obs_->on()) {
    app_span_ = obs_->begin_span(sim_.now(), "app", "appmanager");
    obs_->span_attr(app_span_, "pipelines",
                    static_cast<std::int64_t>(pipelines_.size()));
    ctr_scheduled_ = obs_->counter_ref("entk.tasks_scheduled");
    ctr_launched_ = obs_->counter_ref("entk.tasks_launched");
    ctr_completed_ = obs_->counter_ref("entk.tasks_completed");
    ctr_failed_ = obs_->counter_ref("entk.task_failures");
    g_sched_depth_ = obs_->gauge_ref("entk.launch_queue_depth");
    g_executing_ = obs_->gauge_ref("entk.executing_tasks");
    if (config_.sample_period > 0) {
      obs_->sample(sim_, kOccupancySampler, config_.sample_period, [this] {
        const double total = pilot_.total_cores();
        return total > 0 ? cores_level_.level() / total : 0.0;
      });
    }
  }
  // Bootstrap EnTK/RP components (the OVH slice of Fig 4), then submit the
  // first stage of every pipeline (pipelines run concurrently).
  sim_.schedule_in(config_.bootstrap_overhead, [this] {
    for (std::size_t p = 0; p < pipelines_.size(); ++p) submit_stage(p, 0);
    maybe_finish();  // covers the no-pipelines/no-tasks corner
  });
}

RunReport AppManager::run() {
  start();
  sim_.run();
  if (!finished_) throw std::logic_error("AppManager: simulation drained unfinished");
  return report();
}

void AppManager::submit_stage(std::size_t pipeline, std::size_t stage) {
  auto& pl = pipelines_[pipeline];
  while (stage < pl.stages.size() && pl.stages[stage].tasks.empty()) ++stage;
  current_stage_[pipeline] = stage;
  if (stage >= pl.stages.size()) {
    // Pipeline done (end_span is a no-op for kNoSpan / already-closed spans).
    obs_->end_span(sim_.now(), pipeline_spans_[pipeline]);
    return;
  }

  auto& st = pl.stages[stage];
  if (obs_->on()) {
    if (pipeline_spans_[pipeline] == obs::kNoSpan)
      pipeline_spans_[pipeline] =
          obs_->begin_span(sim_.now(), "pipeline", pl.name, app_span_);
    stage_spans_[pipeline] = obs_->begin_span(
        sim_.now(), "stage", pl.name + "/" + st.name, pipeline_spans_[pipeline]);
    obs_->span_attr(stage_spans_[pipeline], "tasks",
                    static_cast<std::int64_t>(st.tasks.size()));
  }
  stage_remaining_[pipeline] = st.tasks.size();
  stage_failed_[pipeline] = 0;
  for (const auto& task : st.tasks) {
    TaskRecord rec;
    rec.name = task.name;
    rec.kind = task.kind;
    rec.pipeline = pipeline;
    rec.stage = stage;
    rec.state = TaskState::Submitted;
    rec.submit_time = sim_.now();
    const std::size_t index = records_.size();
    records_.push_back(std::move(rec));
    record_desc_.push_back(&task);
    submitted_.push_back(index);
    obs_->instant(sim_.now(), "task", records_[index].name, "submitted",
                  stage_spans_[pipeline]);
  }
  pump_scheduler();
}

void AppManager::pump_scheduler() {
  if (scheduler_busy_ || submitted_.empty()) return;
  scheduler_busy_ = true;
  const std::size_t index = submitted_.front();
  submitted_.pop_front();
  sim_.schedule_in(1.0 / config_.scheduling_rate, [this, index] {
    TaskRecord& rec = records_[index];
    rec.state = TaskState::Scheduled;
    rec.schedule_time = sim_.now();
    scheduled_.push_back(index);
    scheduled_level_.change(sim_.now(), 1.0);
    if (ctr_scheduled_ && obs_->on()) {
      // Fig 5's scheduling curve: cumulative tasks entering the launch queue.
      obs_->count(sim_.now(), ctr_scheduled_);
      obs_->gauge_set(sim_.now(), g_sched_depth_,
                      static_cast<double>(scheduled_.size()));
    }
    obs_->instant(sim_.now(), "task", rec.name, "scheduled",
                  stage_spans_[rec.pipeline]);
    scheduler_busy_ = false;
    pump_scheduler();
    pump_launcher();
  });
}

void AppManager::pump_launcher() {
  if (launcher_busy_ || scheduled_.empty()) return;

  // Scan a bounded window at the head of the launch queue for a task whose
  // allocation fits right now.
  const std::size_t window = std::min(config_.launch_scan_width, scheduled_.size());
  std::size_t pick = window;
  std::optional<cluster::Allocation> alloc;
  for (std::size_t i = 0; i < window; ++i) {
    const TaskDesc& desc = *record_desc_[scheduled_[i]];
    alloc = pilot_.find_allocation(desc.resources);
    if (alloc) {
      pick = i;
      break;
    }
  }
  if (pick == window) return;  // nothing fits; re-pumped on next release

  const std::size_t index = scheduled_[pick];
  scheduled_.erase(scheduled_.begin() + static_cast<std::ptrdiff_t>(pick));
  scheduled_level_.change(sim_.now(), -1.0);
  if (g_sched_depth_ && obs_->on())
    obs_->gauge_set(sim_.now(), g_sched_depth_,
                    static_cast<double>(scheduled_.size()));
  pilot_.claim(*alloc);

  launcher_busy_ = true;
  sim_.schedule_in(1.0 / config_.launching_rate,
                   [this, index, alloc = std::move(*alloc)]() mutable {
    launcher_busy_ = false;
    TaskRecord& rec = records_[index];
    const TaskDesc& desc = *record_desc_[index];

    // If a node of the allocation died (or is silently bad), the attempt
    // is doomed.
    bool nodes_up = true;
    for (const auto& c : alloc.claims) {
      if (!pilot_.node(c.node).up) nodes_up = false;
      if (std::find(cursed_.begin(), cursed_.end(), c.node) != cursed_.end())
        nodes_up = false;
    }

    rec.state = TaskState::Executing;
    rec.start_time = sim_.now();
    ++rec.attempts;
    if (first_exec_start_ < 0) first_exec_start_ = sim_.now();
    executing_level_.change(sim_.now(), 1.0);
    cores_level_.change(sim_.now(), desc.resources.total_cores());
    gpus_level_.change(sim_.now(), desc.resources.total_gpus());

    LiveTask live;
    live.record_index = index;
    live.desc = &desc;
    live.allocation = std::move(alloc);
    if (obs_->on()) {
      if (ctr_launched_) {
        // Fig 5's launching curve: cumulative tasks placed and exec'd.
        obs_->count(sim_.now(), ctr_launched_);
        obs_->gauge_set(sim_.now(), g_executing_, executing_level_.level());
      }
      live.span = obs_->begin_span(sim_.now(), "task", rec.name,
                                   stage_spans_[rec.pipeline]);
      obs_->span_attr(live.span, "kind", desc.kind);
      obs_->span_attr(live.span, "attempt",
                      static_cast<std::int64_t>(rec.attempts));
      obs_->span_attr(live.span, "cores",
                      static_cast<double>(desc.resources.total_cores()));
    }
    obs_->instant(sim_.now(), "task", rec.name, "exec_start", live.span);

    const SimTime runtime = rng_.uniform(desc.runtime_min, desc.runtime_max);
    const bool fails = !nodes_up || rng_.chance(desc.failure_probability);
    const SimTime span = fails ? runtime * rng_.uniform(0.05, 0.95) : runtime;
    live.end_event = sim_.schedule_in(span, [this, index, fails] {
      on_task_end(index, fails);
    });
    executing_.emplace(index, std::move(live));

    pump_launcher();
  });
}

void AppManager::on_task_end(std::size_t record_index, bool failed) {
  auto it = executing_.find(record_index);
  if (it == executing_.end()) return;
  LiveTask live = std::move(it->second);
  executing_.erase(it);

  TaskRecord& rec = records_[record_index];
  const TaskDesc& desc = *record_desc_[record_index];
  rec.end_time = sim_.now();
  executing_level_.change(sim_.now(), -1.0);
  cores_level_.change(sim_.now(), -desc.resources.total_cores());
  gpus_level_.change(sim_.now(), -desc.resources.total_gpus());
  pilot_.release(live.allocation);
  last_exec_end_ = sim_.now();
  if (obs_->on()) {
    if (g_executing_)
      obs_->gauge_set(sim_.now(), g_executing_, executing_level_.level());
    obs_->span_attr(live.span, "failed", failed);
    obs_->end_span(sim_.now(), live.span);
  }

  if (failed) {
    ++failures_;
    rec.state = TaskState::Failed;
    if (ctr_failed_ && obs_->on()) obs_->count(sim_.now(), ctr_failed_);
    obs_->instant(sim_.now(), "task", rec.name, "failed", live.span);
    if (desc.terminal_failure) {
      // Paper §4.3: two last-step failures were accepted as good enough for
      // the material model; the stage completes without rerunning them.
      ++terminal_failures_;
      rec.terminal_failed = true;
      ++stage_failed_[rec.pipeline];
      if (--stage_remaining_[rec.pipeline] == 0) stage_completed(rec.pipeline);
    } else if (!config_.resubmit_in_run) {
      // Collect for the consecutive batch job (paper §4.2 failure handling).
      deferred_.push_back(record_index);
      obs_->instant(sim_.now(), "task", rec.name, "deferred", live.span);
      ++stage_failed_[rec.pipeline];
      if (--stage_remaining_[rec.pipeline] == 0) stage_completed(rec.pipeline);
    } else if (rec.attempts <= config_.max_resubmissions) {
      resubmit(record_index);
    } else {
      HHC_LOG(Warn, "entk") << "task " << rec.name << " exhausted resubmissions";
      ++terminal_failures_;
      rec.terminal_failed = true;
      ++stage_failed_[rec.pipeline];
      if (--stage_remaining_[rec.pipeline] == 0) stage_completed(rec.pipeline);
    }
  } else {
    rec.state = TaskState::Done;
    ++completed_;
    task_runtimes_.add(rec.end_time - rec.start_time);
    if (ctr_completed_ && obs_->on()) obs_->count(sim_.now(), ctr_completed_);
    obs_->instant(sim_.now(), "task", rec.name, "done", live.span);
    if (--stage_remaining_[rec.pipeline] == 0) stage_completed(rec.pipeline);
  }

  pump_launcher();
  maybe_finish();
}

void AppManager::stage_completed(std::size_t pipeline) {
  auto& pl = pipelines_[pipeline];
  const std::size_t stage = current_stage_[pipeline];
  obs_->end_span(sim_.now(), stage_spans_[pipeline]);

  if (stage_hook_) {
    // Dynamic workflows (paper §4): the application inspects the finished
    // stage's status and may grow the pipeline before execution continues.
    StageStatus status;
    status.pipeline = pipeline;
    status.stage = stage;
    status.stage_name = stage < pl.stages.size() ? pl.stages[stage].name : "";
    status.failed = stage_failed_[pipeline];
    status.completed = stage < pl.stages.size()
                           ? pl.stages[stage].tasks.size() - status.failed
                           : 0;
    status.pipeline_finished = stage + 1 >= pl.stages.size();
    for (auto& extra : stage_hook_(status)) {
      obs_->instant(sim_.now(), "stage", extra.name, "appended",
                    pipeline_spans_[pipeline]);
      pl.stages.push_back(std::move(extra));
    }
  }

  submit_stage(pipeline, stage + 1);
}

void AppManager::resubmit(std::size_t record_index) {
  // Zero backoff (the default) re-queues synchronously — the historical
  // behaviour, preserved byte-for-byte in the trace. A positive delay holds
  // the task out of the queue; its stage cannot complete meanwhile, so the
  // run never finishes from under a pending retry.
  const SimTime delay = retry_.next_delay(record_index);
  if (delay <= 0.0) {
    enqueue_resubmit(record_index);
    return;
  }
  obs_->count(sim_.now(), "resilience.backoff_waits");
  obs_->instant(sim_.now(), "task", records_[record_index].name, "backoff",
                stage_spans_[records_[record_index].pipeline]);
  sim_.schedule_in(delay, [this, record_index] {
    enqueue_resubmit(record_index);
  });
}

void AppManager::enqueue_resubmit(std::size_t record_index) {
  TaskRecord& rec = records_[record_index];
  ++resubmissions_;
  rec.state = TaskState::Submitted;
  rec.submit_time = sim_.now();
  // Resubmissions go to the head of the queue so original stage order is
  // preserved (paper §4.2).
  submitted_.push_front(record_index);
  obs_->count(sim_.now(), "entk.resubmissions");
  obs_->instant(sim_.now(), "task", rec.name, "resubmitted",
                stage_spans_[rec.pipeline]);
  pump_scheduler();
}

void AppManager::fail_node_at(SimTime t, cluster::NodeId node) {
  sim_.schedule_at(t, [this, node] {
    if (!pilot_.node(node).up) return;
    // Victims: executing tasks holding a claim on the node.
    std::vector<std::size_t> victims;
    for (const auto& [index, live] : executing_)
      for (const auto& c : live.allocation.claims)
        if (c.node == node) {
          victims.push_back(index);
          break;
        }
    pilot_.set_node_down(node);
    obs_->count(sim_.now(), "entk.node_failures");
    obs_->instant(sim_.now(), "node", std::to_string(node), "down", app_span_);
    for (std::size_t index : victims) {
      executing_.at(index).end_event.cancel();
      on_task_end(index, /*failed=*/true);
    }
  });
}

void AppManager::curse_node_at(SimTime t, cluster::NodeId node) {
  sim_.schedule_at(t, [this, node] {
    cursed_.push_back(node);
    obs_->count(sim_.now(), "entk.cursed_nodes");
    obs_->instant(sim_.now(), "node", std::to_string(node), "cursed", app_span_);
    // Tasks currently running on it fail once their (shortened) span ends —
    // we model immediate crash of the current occupants.
    std::vector<std::size_t> victims;
    for (const auto& [index, live] : executing_)
      for (const auto& c : live.allocation.claims)
        if (c.node == node) {
          victims.push_back(index);
          break;
        }
    for (std::size_t index : victims) {
      executing_.at(index).end_event.cancel();
      on_task_end(index, /*failed=*/true);
    }
  });
}

std::vector<TaskDesc> AppManager::deferred_tasks() const {
  std::vector<TaskDesc> out;
  out.reserve(deferred_.size());
  for (std::size_t index : deferred_) {
    TaskDesc d = *record_desc_[index];
    d.failure_probability = 0.0;  // fresh nodes in the next job
    out.push_back(std::move(d));
  }
  return out;
}

void AppManager::maybe_finish() {
  if (finished_ || !started_) return;
  if (!submitted_.empty() || !scheduled_.empty() || !executing_.empty()) return;
  if (scheduler_busy_ || launcher_busy_) return;
  for (std::size_t p = 0; p < pipelines_.size(); ++p)
    if (current_stage_[p] < pipelines_[p].stages.size()) return;
  finished_ = true;
  obs_->instant(sim_.now(), "app", "appmanager", "finished", app_span_);
  if (obs_->on()) {
    obs_->end_span(sim_.now(), app_span_);
    // Stop only our sampler (the observer may be shared), else its reschedule
    // chain keeps the event loop alive forever.
    obs_->samplers().stop(kOccupancySampler);
    obs::record_kernel_metrics(*obs_, sim_);
  }
}

RunReport AppManager::report() const {
  RunReport r;
  r.job_start = 0.0;
  r.job_end = sim_.now();
  r.ovh = config_.bootstrap_overhead;
  if (first_exec_start_ >= 0 && last_exec_end_ >= first_exec_start_)
    r.ttx = last_exec_end_ - first_exec_start_;
  r.tasks_total = records_.size();
  r.tasks_completed = completed_;
  r.task_failures = failures_;
  r.resubmissions = resubmissions_;
  r.terminal_failures = terminal_failures_;
  r.deferred = deferred_.size();
  r.task_runtimes = task_runtimes_;
  r.scheduled_series = scheduled_level_.series();
  r.executing_series = executing_level_.series();
  r.cores_series = cores_level_.series();
  r.gpus_series = gpus_level_.series();

  const double span = r.job_runtime();
  if (span > 0) {
    const double total_cores = pilot_.total_cores();
    const double total_gpus = pilot_.total_gpus();
    if (total_cores > 0)
      r.core_utilization = r.cores_series.integral(0, r.job_end) / (total_cores * span);
    if (total_gpus > 0)
      r.gpu_utilization = r.gpus_series.integral(0, r.job_end) / (total_gpus * span);
  }
  return r;
}

}  // namespace hhc::entk
