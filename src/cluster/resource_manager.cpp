#include "cluster/resource_manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/observer.hpp"
#include "support/log.hpp"

namespace hhc::cluster {

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

SimTime SchedulingContext::now() const { return rm_.sim_.now(); }
const Cluster& SchedulingContext::cluster() const { return rm_.cluster_; }
const std::vector<JobId>& SchedulingContext::queue() const { return rm_.queue_; }
const JobRecord& SchedulingContext::job(JobId id) const { return rm_.job(id); }
std::vector<JobId> SchedulingContext::running() const { return rm_.running_; }

bool SchedulingContext::try_place(JobId id) {
  return rm_.place(id, [](NodeId) { return true; });
}

bool SchedulingContext::try_place_if(JobId id,
                                     const std::function<bool(NodeId)>& pred) {
  return rm_.place(id, pred);
}

ResourceManager::ResourceManager(sim::Simulation& sim, Cluster& cluster,
                                 std::unique_ptr<Scheduler> scheduler,
                                 ResourceManagerConfig config)
    : sim_(sim), cluster_(cluster), scheduler_(std::move(scheduler)),
      config_(config) {
  if (!scheduler_) throw std::invalid_argument("ResourceManager: null scheduler");
}

void ResourceManager::set_observer(obs::Observer* obs, std::string label) {
  obs_ = obs;
  obs_label_ = std::move(label);
  ctr_submitted_ = ctr_started_ = ctr_completed_ = ctr_failed_ = ctr_killed_ =
      ctr_sched_passes_ = ctr_sched_placed_ = {};
  g_queue_depth_ = g_running_jobs_ = g_cores_busy_ = {};
  h_queue_wait_ = h_job_runtime_ = h_sched_pass_us_ = nullptr;
  scheduler_->set_observer(obs);
}

obs::CounterRef& ResourceManager::counter(obs::CounterRef& ref, const char* name,
                                          const std::string& label) {
  if (!ref) ref = obs_->counter_ref(name, label);
  return ref;
}

obs::GaugeRef& ResourceManager::gauge(obs::GaugeRef& ref, const char* name) {
  if (!ref) ref = obs_->gauge_ref(name, obs_label_);
  return ref;
}

obs::LogHistogram& ResourceManager::histogram(obs::LogHistogram*& h,
                                              const char* name,
                                              const std::string& label,
                                              double lo) {
  if (!h) h = &obs_->metrics().histogram(name, label, lo, 1e7, 4);
  return *h;
}

void ResourceManager::record_load() {
  obs_->gauge_set(sim_.now(), gauge(g_running_jobs_, "rm.running_jobs"),
                  static_cast<double>(running_.size()));
  obs_->gauge_set(sim_.now(), gauge(g_cores_busy_, "rm.cores_busy"),
                  core_usage_.level());
}

JobRecord* ResourceManager::find_job(JobId id) {
  return id >= 1 && id <= jobs_.size() ? &jobs_[id - 1] : nullptr;
}

JobId ResourceManager::submit(JobRequest request, CompletionCallback on_complete,
                              StartCallback on_start) {
  const JobId id = next_id_++;
  JobRecord rec;
  rec.id = id;
  rec.request = std::move(request);
  rec.submit_time = sim_.now();
  jobs_.push_back(std::move(rec));
  if (on_complete) callbacks_.emplace(id, std::move(on_complete));
  if (on_start) start_callbacks_.emplace(id, std::move(on_start));
  queue_.push_back(id);
  if (obs_ && obs_->on()) {
    obs_->count(sim_.now(), counter(ctr_submitted_, "rm.jobs_submitted", obs_label_));
    obs_->gauge_set(sim_.now(), gauge(g_queue_depth_, "rm.queue_depth"),
                    static_cast<double>(queue_.size()));
  }
  kick();
  return id;
}

bool ResourceManager::cancel(JobId id) {
  auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it == queue_.end()) return false;
  queue_.erase(it);
  complete(jobs_[id - 1], JobState::Cancelled, "cancelled by client");
  return true;
}

void ResourceManager::kick() {
  if (pass_pending_ || in_pass_) return;
  pass_pending_ = true;
  sim_.post([this] {
    pass_pending_ = false;
    run_scheduler_pass();
  });
}

void ResourceManager::run_scheduler_pass() {
  if (queue_.empty()) return;
  in_pass_ = true;
  SchedulingContext ctx(*this);
  if (obs_ && obs_->on()) {
    // Per-pass decision latency in real (wall-clock) microseconds: scheduler
    // strategies run inside the hot path of every sweep, so their cost is a
    // genuine performance metric, not simulated time.
    const std::size_t before = queue_.size();
    const auto wall0 = std::chrono::steady_clock::now();
    scheduler_->schedule(ctx);
    const auto wall1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(wall1 - wall0).count();
    if (!ctr_sched_passes_) {
      const std::string strategy = scheduler_->name();
      counter(ctr_sched_passes_, "rm.sched_passes", strategy);
      counter(ctr_sched_placed_, "rm.sched_jobs_placed", strategy);
      histogram(h_sched_pass_us_, "rm.sched_pass_us", strategy, 1e-1);
    }
    obs_->count(sim_.now(), ctr_sched_passes_);
    obs_->count(sim_.now(), ctr_sched_placed_,
                static_cast<double>(before - queue_.size()));
    h_sched_pass_us_->observe(us);
    obs_->gauge_set(sim_.now(), gauge(g_queue_depth_, "rm.queue_depth"),
                    static_cast<double>(queue_.size()));
  } else {
    scheduler_->schedule(ctx);
  }
  in_pass_ = false;
}

bool ResourceManager::place(JobId id, const std::function<bool(NodeId)>& pred) {
  // A job is in queue_ exactly while it is Queued: place, cancel and kill
  // take it out of both together.
  JobRecord* rec = find_job(id);
  if (!rec || rec->state != JobState::Queued) return false;
  auto alloc = cluster_.find_allocation_if(rec->request.resources, pred);
  if (!alloc) return false;
  queue_.erase(std::find(queue_.begin(), queue_.end(), id));
  start_job(*rec, std::move(*alloc));
  return true;
}

SimTime ResourceManager::compute_duration(const JobRecord& rec) const {
  SimTime t = rec.request.runtime / std::max(1e-9, rec.speed);
  if (config_.model_io && !rec.allocation.empty()) {
    // Stage-in/out through the first node's link, bounded by the shared FS.
    const double bw = std::min(cluster_.node_io_bandwidth(rec.allocation.claims[0].node),
                               cluster_.spec().shared_fs_bandwidth);
    t += static_cast<double>(rec.request.input_bytes + rec.request.output_bytes) / bw;
  }
  return t;
}

void ResourceManager::start_job(JobRecord& rec, Allocation alloc) {
  cluster_.claim(alloc);
  rec.allocation = std::move(alloc);
  rec.speed = cluster_.allocation_speed(rec.allocation);
  rec.state = JobState::Running;
  rec.start_time = sim_.now() + config_.scheduling_overhead;
  const SimTime duration = compute_duration(rec);
  rec.expected_finish = rec.start_time + duration;
  running_.push_back(rec.id);
  core_usage_.change(sim_.now(), rec.request.resources.total_cores());
  if (obs_ && obs_->on()) {
    obs_->count(sim_.now(), counter(ctr_started_, "rm.jobs_started", obs_label_));
    histogram(h_queue_wait_, "rm.queue_wait_s", obs_label_, 1e-3)
        .observe(sim_.now() - rec.submit_time);
    record_load();
  }
  const JobId id = rec.id;
  completion_events_[id] =
      sim_.schedule_at(rec.expected_finish, [this, id] { finish_job(id); });
  if (auto sit = start_callbacks_.find(id); sit != start_callbacks_.end()) {
    auto cb = std::move(sit->second);
    start_callbacks_.erase(sit);
    cb(rec);
  }
}

void ResourceManager::finish_job(JobId id) {
  JobRecord& rec = jobs_[id - 1];
  if (rec.state != JobState::Running) return;
  cluster_.release(rec.allocation);
  core_usage_.change(sim_.now(), -rec.request.resources.total_cores());
  running_.erase(std::find(running_.begin(), running_.end(), id));
  completion_events_.erase(id);
  ++completed_;
  if (obs_ && obs_->on()) {
    obs_->count(sim_.now(), counter(ctr_completed_, "rm.jobs_completed", obs_label_));
    histogram(h_job_runtime_, "rm.job_runtime_s", obs_label_, 1e-3)
        .observe(sim_.now() - rec.start_time);
    record_load();
  }
  complete(rec, JobState::Completed, {});
  kick();
}

void ResourceManager::fail_running_job(JobId id, const std::string& reason) {
  JobRecord& rec = jobs_[id - 1];
  if (rec.state != JobState::Running) return;
  // Release claims on still-up nodes; the down node already zeroed itself.
  cluster_.release(rec.allocation);
  core_usage_.change(sim_.now(), -rec.request.resources.total_cores());
  running_.erase(std::find(running_.begin(), running_.end(), id));
  if (auto it = completion_events_.find(id); it != completion_events_.end()) {
    it->second.cancel();
    completion_events_.erase(it);
  }
  ++failed_;
  if (obs_ && obs_->on()) {
    obs_->count(sim_.now(), counter(ctr_failed_, "rm.jobs_failed", obs_label_));
    record_load();
  }
  complete(rec, JobState::Failed, reason);
}

bool ResourceManager::kill(JobId id, const std::string& reason) {
  JobRecord* found = find_job(id);
  if (!found) return false;
  JobRecord& rec = *found;
  if (rec.state == JobState::Queued) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    complete(rec, JobState::Cancelled, reason);
    return true;
  }
  if (rec.state != JobState::Running) return false;
  cluster_.release(rec.allocation);
  core_usage_.change(sim_.now(), -rec.request.resources.total_cores());
  running_.erase(std::find(running_.begin(), running_.end(), id));
  if (auto it = completion_events_.find(id); it != completion_events_.end()) {
    it->second.cancel();
    completion_events_.erase(it);
  }
  ++killed_;
  if (obs_ && obs_->on()) {
    obs_->count(sim_.now(), counter(ctr_killed_, "rm.jobs_killed", obs_label_));
    record_load();
  }
  complete(rec, JobState::Cancelled, reason);
  kick();
  return true;
}

void ResourceManager::complete(JobRecord& rec, JobState final_state,
                               const std::string& reason) {
  rec.state = final_state;
  rec.finish_time = sim_.now();
  rec.failure_reason = reason;
  start_callbacks_.erase(rec.id);  // never started / no longer relevant
  auto it = callbacks_.find(rec.id);
  if (it != callbacks_.end()) {
    auto cb = std::move(it->second);
    callbacks_.erase(it);
    cb(rec);
  }
}

void ResourceManager::fail_node(NodeId node, SimTime repair_after,
                                const std::string& reason) {
  // Collect victims before mutating.
  std::vector<JobId> victims;
  for (JobId id : running_) {
    const JobRecord& rec = jobs_[id - 1];
    for (const auto& c : rec.allocation.claims)
      if (c.node == node) {
        victims.push_back(id);
        break;
      }
  }
  cluster_.set_node_down(node);
  const std::string why =
      reason.empty() ? "node " + std::to_string(node) + " failed" : reason;
  for (JobId id : victims) fail_running_job(id, why);
  if (repair_after > 0.0) {
    sim_.schedule_in(repair_after, [this, node] {
      cluster_.set_node_up(node);
      kick();
    });
  }
  kick();
}

}  // namespace hhc::cluster
