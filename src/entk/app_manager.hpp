// EnTK AppManager: executes PST applications on a pilot.
//
// The model captures what the paper's Figs 4 and 5 measure:
//   * a fixed bootstrap overhead before any task can start (OVH, 85 s on
//     Frontier),
//   * a bounded *scheduling* throughput (tasks entering the ready-to-launch
//     set; 269 tasks/s observed),
//   * a bounded *launching* throughput (tasks being placed + exec'd on
//     nodes; 51 tasks/s observed),
//   * task-level fault tolerance by resubmission, preserving stage order.
// Resource accounting produces the utilization figure (90 % total).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "entk/pst.hpp"
#include "obs/observer.hpp"
#include "resilience/retry.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace hhc::entk {

struct EntkConfig {
  double scheduling_rate = 269.0;   ///< tasks/s entering the launch queue.
  double launching_rate = 51.0;     ///< tasks/s placed and exec'd.
  SimTime bootstrap_overhead = 85.0;///< EnTK/RP component bootstrap (OVH).
  int max_resubmissions = 3;        ///< Per-task resubmission budget.
  std::size_t launch_scan_width = 16;  ///< Head-of-queue scan for a fitting task.
  /// When false, failed tasks are *collected* instead of retried in this
  /// job; the caller reruns them as a consecutive batch job (the paper's
  /// §4.2 re-submission model for hardware failures).
  bool resubmit_in_run = true;
  /// Cadence of the pilot-occupancy time-series sampler (core fraction in
  /// use, executing tasks). 0 disables sampling; the sampler stops itself
  /// when the application finishes.
  SimTime sample_period = 0.0;
  /// Backoff between resubmissions of a failed task. The default
  /// (base_delay 0) resubmits synchronously at the head of the queue — the
  /// historical EnTK behaviour, byte-identical traces — while a positive
  /// base delay spaces retries out with decorrelated jitter so a sick node
  /// is not hammered in a tight loop.
  resilience::RetryBackoff retry;
};

enum class TaskState { Waiting, Submitted, Scheduled, Executing, Done, Failed };

/// Per-attempt record of a task's life.
struct TaskRecord {
  std::string name;
  std::string kind;
  std::size_t pipeline = 0;
  std::size_t stage = 0;
  TaskState state = TaskState::Waiting;
  int attempts = 0;
  SimTime submit_time = -1.0;
  SimTime schedule_time = -1.0;
  SimTime start_time = -1.0;
  SimTime end_time = -1.0;
  bool terminal_failed = false;  ///< Failed and was not eligible for resubmit.
};

/// Everything the Fig 4 / Fig 5 benches need from one run.
struct RunReport {
  SimTime job_start = 0.0;
  SimTime job_end = 0.0;          ///< Last event of the application.
  SimTime ovh = 0.0;              ///< Bootstrap overhead.
  SimTime ttx = 0.0;              ///< First task exec start to last exec end.
  double core_utilization = 0.0;  ///< Core-seconds used / (cores × job span).
  double gpu_utilization = 0.0;
  std::size_t tasks_total = 0;
  std::size_t tasks_completed = 0;
  std::size_t task_failures = 0;    ///< Failed attempts.
  std::size_t resubmissions = 0;
  std::size_t terminal_failures = 0;
  std::size_t deferred = 0;  ///< Failures collected for the next batch job.
  Sample task_runtimes;
  StepSeries scheduled_series;    ///< Fig 5 blue: tasks pending launch.
  StepSeries executing_series;    ///< Fig 5 orange: tasks executing.
  StepSeries cores_series;        ///< Fig 4: cores in use.
  StepSeries gpus_series;

  SimTime job_runtime() const noexcept { return job_end - job_start; }
};

/// Executes PST pipelines on a pilot (a Cluster of whole nodes).
class AppManager {
 public:
  AppManager(sim::Simulation& sim, cluster::Cluster& pilot, EntkConfig config,
             Rng rng);

  void add_pipeline(PipelineDesc pipeline);

  /// Summary of a just-completed stage, handed to the dynamic-stage hook.
  struct StageStatus {
    std::size_t pipeline = 0;
    std::size_t stage = 0;
    std::string stage_name;
    std::size_t completed = 0;
    std::size_t failed = 0;        ///< Terminal/deferred failures in the stage.
    bool pipeline_finished = false;  ///< True when this was the last stage.
  };

  /// EnTK's dynamic workflows (paper §4: "create new workflow stages based
  /// on the status of previously executed stages"): the hook runs when a
  /// stage completes and may return additional stages to append to that
  /// pipeline before execution continues.
  using StageHook = std::function<std::vector<StageDesc>(const StageStatus&)>;
  void set_stage_hook(StageHook hook) { stage_hook_ = std::move(hook); }

  /// Injects a *detected* node failure at time `t`: the node goes down,
  /// tasks running there fail, and no further tasks are placed on it.
  void fail_node_at(SimTime t, cluster::NodeId node);

  /// Injects an *undetected* node failure at time `t`: the node stays in the
  /// allocation, so every subsequent wave launched onto it fails too. This
  /// reproduces the Frontier incident of §4.3 — one bad node, eight task
  /// failures across waves, all rerun successfully in the next batch job.
  void curse_node_at(SimTime t, cluster::NodeId node);

  /// Starts execution (bootstrap, then stage submission). Non-blocking:
  /// drive the simulation afterwards.
  void start();

  /// Convenience: start() + drain the event loop + build the report.
  RunReport run();

  bool finished() const noexcept { return finished_; }
  RunReport report() const;
  const std::vector<TaskRecord>& task_records() const noexcept { return records_; }

  /// The observability sink: hierarchical spans (app -> pipeline -> stage ->
  /// task), metric counters (entk.tasks_scheduled / entk.tasks_launched are
  /// Fig 5's two curves as cumulative series) and the pilot-occupancy
  /// sampler. Owned internally unless use_observer() attached a shared one.
  obs::Observer& observer() noexcept { return *obs_; }
  const obs::Observer& observer() const noexcept { return *obs_; }

  /// Shares an external observer (e.g. a sweep-wide one). Call before
  /// start(); pass nullptr to return to the internal observer.
  void use_observer(obs::Observer* obs);

  /// Legacy flat trace, replayed from the observer's span/instant log. The
  /// record stream is identical to what pre-observability AppManager
  /// emitted. Empty when the observer is disabled.
  const sim::Trace& trace() const;

  /// Descriptions of tasks whose failures were deferred (resubmit_in_run ==
  /// false). Feed these to a fresh AppManager as the consecutive batch job.
  std::vector<TaskDesc> deferred_tasks() const;

 private:
  struct LiveTask {
    std::size_t record_index = 0;
    const TaskDesc* desc = nullptr;
    cluster::Allocation allocation;
    sim::EventHandle end_event;
    obs::SpanId span = obs::kNoSpan;
  };

  void submit_stage(std::size_t pipeline, std::size_t stage);
  void stage_completed(std::size_t pipeline);
  void pump_scheduler();
  void pump_launcher();
  void on_task_end(std::size_t record_index, bool failed);
  void resubmit(std::size_t record_index);
  void enqueue_resubmit(std::size_t record_index);
  void maybe_finish();

  sim::Simulation& sim_;
  cluster::Cluster& pilot_;
  EntkConfig config_;
  Rng rng_;
  resilience::RetryPolicy retry_;

  std::vector<PipelineDesc> pipelines_;
  std::vector<std::size_t> current_stage_;     ///< Per pipeline.
  std::vector<std::size_t> stage_remaining_;   ///< Tasks left in current stage.
  std::vector<std::size_t> stage_failed_;      ///< Failures in current stage.
  StageHook stage_hook_;

  std::vector<TaskRecord> records_;
  std::vector<const TaskDesc*> record_desc_;
  std::deque<std::size_t> submitted_;   ///< Record indices awaiting scheduling.
  std::deque<std::size_t> scheduled_;   ///< Record indices awaiting launch.
  std::map<std::size_t, LiveTask> executing_;  ///< By record index.
  std::vector<std::size_t> deferred_;   ///< Record indices left for the next job.
  std::vector<cluster::NodeId> cursed_; ///< Undetected-failure nodes.

  bool scheduler_busy_ = false;
  bool launcher_busy_ = false;
  bool started_ = false;
  bool finished_ = false;

  LevelTracker scheduled_level_;
  LevelTracker executing_level_;
  LevelTracker cores_level_;
  LevelTracker gpus_level_;
  Sample task_runtimes_;
  std::size_t completed_ = 0;
  std::size_t failures_ = 0;
  std::size_t resubmissions_ = 0;
  std::size_t terminal_failures_ = 0;
  SimTime first_exec_start_ = -1.0;
  SimTime last_exec_end_ = -1.0;

  // --- observability ---
  obs::Observer own_obs_;
  obs::Observer* obs_ = &own_obs_;
  obs::SpanId app_span_ = obs::kNoSpan;
  std::vector<obs::SpanId> pipeline_spans_;  ///< Per pipeline.
  std::vector<obs::SpanId> stage_spans_;     ///< Current stage span, per pipeline.
  // Hot-path metric handles, resolved once at start() (registry lookups are
  // keyed by string; the launcher fires thousands of times per run).
  // Recording goes through the Observer's handle overloads so an attached
  // metric tap (the telemetry plane) sees every record.
  obs::CounterRef ctr_scheduled_;
  obs::CounterRef ctr_launched_;
  obs::CounterRef ctr_completed_;
  obs::CounterRef ctr_failed_;
  obs::GaugeRef g_sched_depth_;
  obs::GaugeRef g_executing_;
  mutable sim::Trace trace_cache_;
  mutable std::uint64_t trace_cache_version_ = static_cast<std::uint64_t>(-1);
};

}  // namespace hhc::entk
