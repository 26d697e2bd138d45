// Resource manager: batch queue + pluggable scheduler over a Cluster.
//
// Stands in for SLURM / Kubernetes / OpenPBS (paper §3): workflow engines
// submit ready tasks as jobs; the scheduler policy decides placement. The
// CWS (src/cws) plugs in here as a workflow-aware Scheduler, which is
// exactly the paper's architecture (CWS runs *inside* the resource manager).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "support/stats.hpp"
#include "workflow/workflow.hpp"

namespace hhc::obs {
class Observer;
}

namespace hhc::cluster {

using JobId = std::uint64_t;

enum class JobState { Queued, Running, Completed, Failed, Cancelled };

const char* to_string(JobState s) noexcept;

/// A job submission. Workflow-aware schedulers read the CWSI fields; plain
/// schedulers ignore them (that asymmetry is the point of the experiment).
struct JobRequest {
  std::string name;
  std::string kind;             ///< Tool label; predictors learn per kind.
  std::string user;             ///< Submitting user (fair-share policies).
  wf::Resources resources;
  SimTime runtime = 1.0;        ///< True runtime on a speed-1 node (hidden from schedulers).
  Bytes input_bytes = 0;
  Bytes output_bytes = 0;

  // --- CWSI payload (paper §3.1): optional workflow context ---
  int workflow_id = -1;                  ///< -1 when not workflow-attached.
  wf::TaskId task_id = wf::kInvalidTask;
  double walltime_estimate = 0.0;        ///< User/WMS estimate; 0 = none.
};

/// Full record of a job's life.
struct JobRecord {
  JobId id = 0;
  JobRequest request;
  JobState state = JobState::Queued;
  SimTime submit_time = 0.0;
  SimTime start_time = 0.0;
  SimTime finish_time = 0.0;
  SimTime expected_finish = 0.0;  ///< Set when started.
  Allocation allocation;
  double speed = 1.0;            ///< Speed of the allocation it ran on.
  std::string failure_reason;
};

using CompletionCallback = std::function<void(const JobRecord&)>;
/// Fires when the job leaves the queue and starts running. The record's
/// start_time/speed are set — enough to arm straggler watchdogs.
using StartCallback = std::function<void(const JobRecord&)>;

class ResourceManager;

/// The view a Scheduler gets of the manager during a scheduling pass.
class SchedulingContext {
 public:
  explicit SchedulingContext(ResourceManager& rm) : rm_(rm) {}

  SimTime now() const;
  const Cluster& cluster() const;
  /// Queued job ids in submission order.
  const std::vector<JobId>& queue() const;
  const JobRecord& job(JobId id) const;
  /// Running job ids (for backfill shadow computation).
  std::vector<JobId> running() const;

  /// Attempts to place the job anywhere it fits. Returns true on success
  /// (the job leaves the queue immediately).
  bool try_place(JobId id);

  /// Attempts to place the job on nodes satisfying `pred`.
  bool try_place_if(JobId id, const std::function<bool(NodeId)>& pred);

 private:
  ResourceManager& rm_;
};

/// Placement policy. Implementations must be deterministic.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  /// Called on every scheduling opportunity (submission, completion,
  /// node recovery). Place as many queued jobs as the policy wants.
  virtual void schedule(SchedulingContext& ctx) = 0;
  /// Optional observability sink; strategies that instrument per-decision
  /// metrics override this. Default ignores the observer.
  virtual void set_observer(obs::Observer*) {}
};

/// Tunables for the execution model.
struct ResourceManagerConfig {
  bool model_io = true;          ///< Add stage-in/out time to job runtimes.
  SimTime scheduling_overhead = 0.0;  ///< Fixed delay added before each start.
};

/// The resource manager proper. Owns the queue and drives Cluster state from
/// simulation events.
class ResourceManager {
 public:
  ResourceManager(sim::Simulation& sim, Cluster& cluster,
                  std::unique_ptr<Scheduler> scheduler,
                  ResourceManagerConfig config = {});

  /// Submits a job; `on_complete` fires on Completed/Failed/Cancelled,
  /// `on_start` (optional) when the job begins running.
  JobId submit(JobRequest request, CompletionCallback on_complete = {},
               StartCallback on_start = {});

  /// Cancels a queued job (running jobs are not preemptable in this model —
  /// use kill() for the resilience paths that need it).
  /// Returns false if the job is not queued.
  bool cancel(JobId id);

  /// Kills a queued *or running* job: frees its allocation and completes it
  /// as Cancelled with `reason`. This is the hedge-loser / timeout path —
  /// unlike fail_node it is surgical (one job) and counts neither as a
  /// completion nor a failure. Returns false when the job is already done.
  bool kill(JobId id, const std::string& reason = "killed by client");

  const JobRecord& job(JobId id) const { return jobs_.at(id - 1); }
  std::size_t queued_count() const noexcept { return queue_.size(); }
  std::size_t running_count() const noexcept { return running_.size(); }

  /// Takes a node down now; jobs running on it fail. If repair_after > 0 the
  /// node comes back after that delay and scheduling resumes on it. `reason`
  /// overrides the failure_reason on the victims' records (classification
  /// wire format — e.g. spot preemptions say "preempted"); empty keeps the
  /// default "node N failed".
  void fail_node(NodeId id, SimTime repair_after = 0.0,
                 const std::string& reason = {});

  const Cluster& cluster() const noexcept { return cluster_; }
  sim::Simulation& simulation() noexcept { return sim_; }
  Scheduler& scheduler() noexcept { return *scheduler_; }

  /// Core-in-use trace over time (for utilization figures).
  const StepSeries& core_usage() const noexcept { return core_usage_.series(); }
  /// Count of completed / failed jobs so far.
  std::size_t completed_jobs() const noexcept { return completed_; }
  std::size_t failed_jobs() const noexcept { return failed_; }
  std::size_t killed_jobs() const noexcept { return killed_; }

  /// Forces a scheduling pass soon (coalesced).
  void kick();

  /// Attaches an observability sink. Metrics are labeled with `label`
  /// (typically the environment name) so several managers can share one
  /// observer. Passes the observer through to the scheduler. Null detaches.
  void set_observer(obs::Observer* obs, std::string label = {});

 private:
  friend class SchedulingContext;

  JobRecord* find_job(JobId id);
  bool place(JobId id, const std::function<bool(NodeId)>& pred);
  void start_job(JobRecord& rec, Allocation alloc);
  void finish_job(JobId id);
  void fail_running_job(JobId id, const std::string& reason);
  void complete(JobRecord& rec, JobState final_state, const std::string& reason);
  SimTime compute_duration(const JobRecord& rec) const;
  void run_scheduler_pass();
  obs::CounterRef& counter(obs::CounterRef& ref, const char* name,
                           const std::string& label);
  obs::GaugeRef& gauge(obs::GaugeRef& ref, const char* name);
  obs::LogHistogram& histogram(obs::LogHistogram*& h, const char* name,
                               const std::string& label, double lo);
  void record_load();  ///< rm.running_jobs + rm.cores_busy gauges.

  sim::Simulation& sim_;
  Cluster& cluster_;
  std::unique_ptr<Scheduler> scheduler_;
  ResourceManagerConfig config_;

  /// Every job ever submitted, at index id - 1 (ids are dense from 1). A
  /// deque keeps references valid while callbacks submit further jobs.
  std::deque<JobRecord> jobs_;
  std::map<JobId, CompletionCallback> callbacks_;
  std::map<JobId, StartCallback> start_callbacks_;
  std::vector<JobId> queue_;            ///< Submission order.
  std::map<JobId, sim::EventHandle> completion_events_;
  std::vector<JobId> running_;
  JobId next_id_ = 1;
  bool pass_pending_ = false;
  bool in_pass_ = false;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t killed_ = 0;
  LevelTracker core_usage_;
  obs::Observer* obs_ = nullptr;
  std::string obs_label_;
  // Hot-path metric handles, each resolved on its first record (so nothing
  // the manager never recorded shows up in snapshots or exports) and dropped
  // by set_observer. Counters and gauges record through the Observer's
  // handle overloads, so an attached metric tap sees every record; the
  // histograms are raw, as the by-name lookups they replace were.
  obs::CounterRef ctr_submitted_, ctr_started_, ctr_completed_, ctr_failed_,
      ctr_killed_, ctr_sched_passes_, ctr_sched_placed_;
  obs::GaugeRef g_queue_depth_, g_running_jobs_, g_cores_busy_;
  obs::LogHistogram* h_queue_wait_ = nullptr;
  obs::LogHistogram* h_job_runtime_ = nullptr;
  obs::LogHistogram* h_sched_pass_us_ = nullptr;
};

}  // namespace hhc::cluster
