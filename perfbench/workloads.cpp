#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "entk/app_manager.hpp"
#include "entk/exaam.hpp"
#include "resilience/chaos.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace hhc;

std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) noexcept {
  if (rep == 0) return seed;
  // splitmix64 of (seed, rep): distinct, well-mixed seeds per rep.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> RepCounts::exact() const {
  return {attempts,
          completed_attempts,
          events,
          queue_high_water,
          reroutes,
          transfers,
          cache_hits,
          cache_misses,
          hedges,
          faults,
          journal_bytes,
          checkpoints,
          resubmissions,
          static_cast<double>(tally.campaigns),
          static_cast<double>(tally.aborted),
          static_cast<double>(tally.attempted),
          static_cast<double>(tally.not_completed)};
}

namespace {

/// Opens a span on the probe's recorder (when tracing) for the scope.
class SpanScope {
 public:
  SpanScope(Probe* probe, SpanRecorder::Layer layer)
      : spans_(probe ? &probe->spans : nullptr) {
    if (spans_) spans_->begin(layer);
  }
  ~SpanScope() {
    if (spans_) spans_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* spans_;
};

double family_sum(const obs::Registry& reg, const std::string& name) {
  double sum = 0.0;
  for (const auto& [label, counter] : reg.counter_family(name))
    sum += counter->value();
  return sum;
}

double histogram_sum(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  double sum = 0.0;
  for (const obs::HistogramEntry& h : snap.histograms)
    if (h.name == name) sum += h.sum;
  return sum;
}

/// Folds one harness's kernel, resource-manager, fabric and hedging
/// counters into `c`, and checks the attempt census: every started attempt
/// ended completed, failed or killed.
void add_toolkit_counts(core::Toolkit& tk, RepCounts& c, bool check_census,
                        std::vector<std::string>& violations,
                        const std::string& where) {
  const obs::Registry& reg = tk.observer().metrics();
  const double started = family_sum(reg, "rm.jobs_started");
  const double completed = family_sum(reg, "rm.jobs_completed");
  const double ended = completed + family_sum(reg, "rm.jobs_failed") +
                       family_sum(reg, "rm.jobs_killed");
  if (check_census && started != ended)
    violations.push_back(where + ": attempt census: " +
                         std::to_string(started) + " started, " +
                         std::to_string(ended) + " ended");
  c.attempts += started;
  c.completed_attempts += completed;
  c.events += static_cast<double>(tk.simulation().fired_events());
  c.queue_high_water =
      std::max(c.queue_high_water,
               static_cast<double>(tk.simulation().queue_high_water()));
  c.reroutes += family_sum(reg, "federation.reroutes");
  c.transfers += family_sum(reg, "fabric.transfers");
  c.cache_hits += family_sum(reg, "fabric.cache_hits");
  c.cache_misses += family_sum(reg, "fabric.cache_misses");
  c.hedges += family_sum(reg, "resilience.hedges_launched");
  c.sched_pass_us +=
      histogram_sum(tk.observer().snapshot(), "rm.sched_pass_us");
}

/// The E20 schedule_string shape: one line per submission.
std::string schedule_string(const service::WorkflowService& svc) {
  std::ostringstream out;
  out.precision(17);
  for (const service::Submission& sub : svc.submissions())
    out << sub.seq << ' ' << sub.tenant << ' ' << static_cast<int>(sub.state)
        << ' ' << sub.arrived << ' ' << sub.launched << ' ' << sub.finished
        << ' ' << sub.consumed_core_seconds << '\n';
  return out.str();
}

bool terminal(service::Submission::State s) {
  return s == service::Submission::State::Completed ||
         s == service::Submission::State::Failed ||
         s == service::Submission::State::Shed;
}

std::size_t completed_count(const service::WorkflowService& svc) {
  std::size_t n = 0;
  for (const service::Submission& sub : svc.submissions())
    n += sub.state == service::Submission::State::Completed;
  return n;
}

/// Every submission terminal, tenant reports adding up to the service report.
void check_settled(const service::WorkflowService& svc,
                   const service::ServiceReport& report,
                   std::vector<std::string>& violations,
                   const std::string& where) {
  std::size_t unsettled = 0;
  for (const service::Submission& sub : svc.submissions())
    unsettled += !terminal(sub.state);
  if (unsettled)
    violations.push_back(where + ": " + std::to_string(unsettled) +
                         " submissions never reached a terminal state");
  std::size_t submitted = 0, completed = 0, failed = 0, shed = 0;
  for (const service::TenantReport& t : report.tenants) {
    submitted += t.submitted;
    completed += t.completed;
    failed += t.failed;
    shed += t.shed;
    if (t.completed + t.failed + t.shed != t.submitted)
      violations.push_back(where + ": tenant " + t.tenant +
                           " completed+failed+shed != submitted");
  }
  if (submitted != svc.submissions().size() || submitted != report.submitted ||
      completed != report.completed || failed != report.failed ||
      shed != report.shed || completed != completed_count(svc))
    violations.push_back(where + ": tenant reports do not add up to the "
                                 "service report and schedule");
}

/// E18 claim (c): the hub's per-window stretch series reconcile with the
/// TenantReports (counts sum to completed, means agree, nothing dropped).
void check_windows(const service::WorkflowService& svc,
                   const service::ServiceReport& report,
                   std::vector<std::string>& violations,
                   const std::string& where) {
  const obs::telemetry::TimeSeriesStore& store = svc.telemetry()->store();
  for (const service::TenantReport& t : report.tenants) {
    const obs::telemetry::WindowSeries* s = store.find(
        obs::telemetry::SeriesKind::Value, "service.stretch", t.tenant);
    const std::size_t records = s ? s->total_count() : 0;
    const double sum = s ? s->total_sum() : 0.0;
    if ((s && s->dropped() != 0) || records != t.completed) {
      violations.push_back(where + ": tenant " + t.tenant +
                           " stretch windows do not cover the run");
      continue;
    }
    if (t.completed > 0) {
      const double mean = sum / static_cast<double>(records);
      if (std::abs(mean - t.stretch_mean) >
          1e-9 * std::max(1.0, std::abs(t.stretch_mean)))
        violations.push_back(where + ": tenant " + t.tenant +
                             " window stretch mean != stretch_mean");
    }
  }
}

void take_completion_gaps(Probe* probe) {
  if (!probe) return;
  const std::vector<std::int64_t>& c = probe->completions;
  for (std::size_t i = 1; i < c.size(); ++i)
    probe->completion_gaps_us.push_back(static_cast<double>(c[i] - c[i - 1]) /
                                        1e3);
  probe->completions.clear();
}

// --- the shared two-site federation of E18 -----------------------------------

constexpr double kCapacityCores = 64.0;  // 2 sites x 2 nodes x 16 cores
constexpr double kHeavyShare = 0.85;
constexpr SimTime kHorizon = 4 * 3600.0;

struct Harness {
  std::unique_ptr<core::Toolkit> toolkit;
  std::unique_ptr<federation::Broker> broker;
};

Harness make_harness(const core::ToolkitConfig& tc,
                     const federation::BrokerConfig& bc, Probe* probe) {
  Harness h;
  h.toolkit = std::make_unique<core::Toolkit>(tc);
  (void)h.toolkit->add_hpc("alpha",
                           cluster::homogeneous_cluster(2, 16, gib(64)));
  (void)h.toolkit->add_hpc("beta",
                           cluster::homogeneous_cluster(2, 16, gib(64)));
  h.broker = std::make_unique<federation::Broker>(bc);
  h.broker->add_site(h.toolkit->describe_environment(0));
  h.broker->add_site(h.toolkit->describe_environment(1));
  if (probe)
    h.broker->set_policy(std::make_unique<TimedPolicy>(
        federation::make_policy(bc.policy), probe->spans));
  return h;
}

service::TenantConfig heavy_tenant() {
  service::TenantConfig t;
  t.name = "heavy";
  t.workload.shapes = {"chain", "fork-join", "layered", "montage"};
  t.workload.scale = 6;
  t.workload.params.runtime_mean = 120.0;
  t.workload.params.data_mean = mib(8);
  return t;
}

service::TenantConfig light_tenant() {
  service::TenantConfig t;
  t.name = "light";
  t.workload.shapes = {"chain", "fork-join"};
  t.workload.scale = 3;
  t.workload.params.runtime_mean = 60.0;
  t.workload.params.data_mean = mib(4);
  return t;
}

/// E18's calibration pass: each tenant's mean per-workflow work
/// (core-seconds), measured through the service at a rate too low for load
/// to matter. Its seed is E18's and not the workload seed: the calibration
/// fixes what "90 % offered load" means, so it is part of the workload's
/// definition, and a per-seed estimate from 40 samples would move the load
/// level (and with it shedding and memory) from run to run.
std::map<std::string, double> calibrate_work() {
  Harness h = make_harness({}, {}, nullptr);
  service::ServiceConfig cfg;
  cfg.seed = 1234;
  cfg.horizon = 1e9;
  cfg.policy = "fifo";
  cfg.run_slots = 16;
  for (service::TenantConfig t : {heavy_tenant(), light_tenant()}) {
    t.arrivals.rate = 1.0 / 60.0;
    t.max_submissions = 40;
    cfg.tenants.push_back(std::move(t));
  }
  service::WorkflowService svc(*h.toolkit, *h.broker, cfg);
  (void)svc.run();
  std::map<std::string, double> sum, count;
  for (const service::Submission& sub : svc.submissions()) {
    sum[sub.tenant] += sub.est_work;
    count[sub.tenant] += 1.0;
  }
  std::map<std::string, double> mean;
  for (const auto& [tenant, s] : sum) mean[tenant] = s / count[tenant];
  return mean;
}

/// Two E18 tenants at `load_pct` of capacity, telemetry hub attached.
service::ServiceConfig e18_config(std::uint64_t seed, int load_pct,
                                  const std::string& policy,
                                  std::size_t queue_bound,
                                  const std::map<std::string, double>& work) {
  service::ServiceConfig cfg;
  cfg.seed = seed;
  cfg.horizon = kHorizon;
  cfg.policy = policy;
  cfg.run_slots = 64;
  cfg.admission.max_queue_per_tenant = queue_bound;
  cfg.telemetry.enabled = true;
  const double offered = static_cast<double>(load_pct) / 100.0 * kCapacityCores;
  for (service::TenantConfig t : {heavy_tenant(), light_tenant()}) {
    const double share = t.name == "heavy" ? kHeavyShare : 1.0 - kHeavyShare;
    t.arrivals.rate = share * offered / work.at(t.name);
    cfg.tenants.push_back(std::move(t));
  }
  return cfg;
}

// --- e18_sweep ---------------------------------------------------------------

class E18Sweep final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    work_ = calibrate_work();  // builds a harness of its own
  }

  RepResult run_rep(std::size_t rep, Probe* probe) override {
    struct Point {
      int load;
      const char* policy;
      std::size_t bound;
    };
    static constexpr Point kPoints[] = {
        {60, "fifo", 0},         {60, "fair-share", 0},
        {90, "fifo", 0},         {90, "fair-share", 0},
        {120, "fifo", 0},        {120, "fair-share", 0},
        {120, "fair-share", 12}};
    RepResult r;
    SpanScope rep_span(probe, SpanRecorder::kRep);
    const std::uint64_t seed = rep_seed(seed_, rep);
    for (const Point& p : kPoints) {
      const std::string where = "e18 " + std::to_string(p.load) + "% " +
                                p.policy + (p.bound ? " bounded" : "");
      Harness h = make_harness({}, {}, probe);
      service::WorkflowService svc(
          *h.toolkit, *h.broker,
          e18_config(seed, p.load, p.policy, p.bound, work_));
      std::optional<TapGuard> tap;
      if (probe)
        tap.emplace(h.toolkit->observer(), probe->spans, &probe->completions);
      service::ServiceReport report;
      {
        SpanScope span(probe, SpanRecorder::kService);
        report = svc.run();
      }
      take_completion_gaps(probe);
      check_settled(svc, report, r.violations, where);
      check_windows(svc, report, r.violations, where);
      add_toolkit_counts(*h.toolkit, r.counts, true, r.violations, where);
      r.counts.tally.add_finished(svc.submissions().size(),
                                  completed_count(svc));
      r.digest = fnv1a(schedule_string(svc), r.digest);
    }
    return r;
  }

 private:
  std::uint64_t seed_ = 0;
  std::map<std::string, double> work_;
};

// --- stage3_entk -------------------------------------------------------------

/// The Fig 4 harness: ExaAM UQ Stage 3 (7875 ExaConstit tasks + the final
/// optimisation task) on the 8000-node frontier_like pilot, two registered
/// terminal failures and the silently bad node of §4.3, failures collected
/// for the next batch job.
class Stage3Entk final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    pipeline_ = entk::make_stage3(entk::ExaamScale{}, /*terminal_failures=*/2);
    spec_ = cluster::frontier_like(kNodes);
    // Build the pilot and load the application once: reps build their own
    // (a run mutates its pilot), so this times the set-up a rep pays.
    sim::Simulation sim;
    cluster::Cluster pilot(spec_);
    entk::AppManager app(sim, pilot, config(), Rng(seed));
    app.add_pipeline(pipeline_);
  }

  RepResult run_rep(std::size_t rep, Probe* probe) override {
    RepResult r;
    SpanScope rep_span(probe, SpanRecorder::kRep);
    sim::Simulation sim;
    cluster::Cluster pilot(spec_);
    entk::AppManager app(sim, pilot, config(), Rng(rep_seed(seed_, rep)));
    app.add_pipeline(pipeline_);
    app.curse_node_at(hours(1.38), static_cast<cluster::NodeId>(kNodes / 2));
    entk::RunReport report;
    {
      SpanScope span(probe, SpanRecorder::kEntk);
      report = app.run();
    }

    std::ostringstream sched;
    sched.precision(17);
    double attempts = 0, done = 0;
    for (const entk::TaskRecord& t : app.task_records()) {
      sched << t.name << ' ' << static_cast<int>(t.state) << ' ' << t.attempts
            << ' ' << t.submit_time << ' ' << t.schedule_time << ' '
            << t.start_time << ' ' << t.end_time << '\n';
      attempts += t.attempts;
      done += t.state == entk::TaskState::Done;
      if (t.state != entk::TaskState::Done &&
          t.state != entk::TaskState::Failed)
        r.violations.push_back("stage3: task " + t.name +
                               " never reached a terminal state");
    }
    const obs::Registry& reg = app.observer().metrics();
    const double launched = family_sum(reg, "entk.tasks_launched");
    if (launched != attempts)
      r.violations.push_back("stage3: attempt census: " +
                             std::to_string(launched) + " launched, " +
                             std::to_string(attempts) + " task attempts");
    if (done != static_cast<double>(report.tasks_completed) ||
        report.tasks_total != app.task_records().size() ||
        report.tasks_total != pipeline_.task_count())
      r.violations.push_back("stage3: run report disagrees with task records");

    r.digest = fnv1a(sched.str());
    r.counts.attempts = attempts;
    r.counts.completed_attempts = done;
    r.counts.tally.add_finished(report.tasks_total, report.tasks_completed);
    r.counts.events = static_cast<double>(sim.fired_events());
    r.counts.queue_high_water = static_cast<double>(sim.queue_high_water());
    r.counts.resubmissions = static_cast<double>(report.resubmissions);
    return r;
  }

 private:
  static constexpr std::size_t kNodes = 8000;
  static entk::EntkConfig config() {
    entk::EntkConfig cfg;
    cfg.scheduling_rate = 269.0;
    cfg.launching_rate = 51.0;
    cfg.bootstrap_overhead = 85.0;
    cfg.resubmit_in_run = false;
    cfg.sample_period = 60.0;
    return cfg;
  }

  std::uint64_t seed_ = 0;
  entk::PipelineDesc pipeline_;
  cluster::ClusterSpec spec_;
};

// --- durable_chaos -----------------------------------------------------------

/// E18-shaped tenants on the failure paths: a journal with a checkpoint after
/// every completion, node crashes (per-node MTBF 4 h), 5 % stragglers with
/// hedging, retry backoff, lineage recovery, and one ServiceCrash at
/// mid-horizon with auto-recover. One rep is one campaign.
class DurableChaos final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    work_ = calibrate_work();  // builds a harness of its own
  }

  RepResult run_rep(std::size_t rep, Probe* probe) override {
    RepResult r;
    SpanScope rep_span(probe, SpanRecorder::kRep);
    const std::uint64_t seed = rep_seed(seed_, rep);
    core::ToolkitConfig tc = toolkit_config();
    tc.seed = seed;
    Harness h = make_harness(tc, broker_config(), probe);

    service::ServiceConfig cfg =
        e18_config(seed, kLoadPct, "fair-share", /*queue_bound=*/0, work_);
    cfg.durability.journal = true;
    cfg.durability.checkpoints =
        resilience::CheckpointPolicy::every_completions(1);
    cfg.durability.auto_recover = true;

    resilience::ChaosConfig cc;
    cc.seed = seed;
    cc.horizon = kHorizon;
    cc.node_mtbf = 4 * 3600.0;
    cc.task.straggler_rate = 0.05;
    resilience::ChaosEvent crash;
    crash.time = kHorizon / 2;
    crash.kind = resilience::ChaosKind::ServiceCrash;
    cc.scheduled = {crash};
    resilience::ChaosEngine chaos(cc);

    service::WorkflowService svc(*h.toolkit, *h.broker, cfg);
    svc.attach_chaos(&chaos);
    std::optional<TapGuard> tap;
    if (probe)
      tap.emplace(h.toolkit->observer(), probe->spans, &probe->completions);
    const std::string where = "durable_chaos rep " + std::to_string(rep);
    bool aborted = false;
    service::ServiceReport report;
    try {
      SpanScope span(probe, SpanRecorder::kService);
      report = svc.run();
    } catch (const std::exception& e) {
      // The known defect (resuming a hedged run from a checkpoint stages a
      // dataset the fabric does not know) aborts the campaign: counted, never
      // dodged. Any other exception is a new failure and breaks the run.
      aborted = true;
      if (std::string(e.what()).find("stage of unknown dataset") ==
          std::string::npos)
        r.violations.push_back(where + ": unexpected exception: " + e.what());
    }
    take_completion_gaps(probe);
    if (!aborted) check_settled(svc, report, r.violations, where);
    add_toolkit_counts(*h.toolkit, r.counts, !aborted, r.violations, where);

    if (aborted)
      r.counts.tally.add_aborted(svc.submissions().size(),
                                 completed_count(svc));
    else
      r.counts.tally.add_finished(svc.submissions().size(),
                                  completed_count(svc));
    r.counts.faults = static_cast<double>(chaos.injected());
    const std::string journal = svc.journal().dump_jsonl();
    r.counts.journal_bytes = static_cast<double>(journal.size());
    for (const resilience::JournalRecord& rec : svc.journal().records())
      r.counts.checkpoints += rec.kind == resilience::JournalKind::Checkpoint;
    r.digest = fnv1a(schedule_string(svc));
    r.digest = fnv1a(aborted ? "aborted" : "settled", r.digest);
    return r;
  }

 private:
  static constexpr int kLoadPct = 90;
  static core::ToolkitConfig toolkit_config() {
    core::ToolkitConfig tc;
    tc.resilience.backoff.base_delay = 15.0;
    tc.resilience.backoff.max_delay = 120.0;
    tc.resilience.hedging.enabled = true;
    tc.resilience.hedging.quantile = 90.0;
    tc.resilience.hedging.slack = 1.3;
    tc.resilience.lineage_recovery = true;
    return tc;
  }
  static federation::BrokerConfig broker_config() {
    federation::BrokerConfig bc;
    bc.retry.base_delay = 15.0;
    bc.retry.max_delay = 120.0;
    return bc;
  }

  std::uint64_t seed_ = 0;
  std::map<std::string, double> work_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"e18_sweep", "stage3_entk",
                                                 "durable_chaos"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "e18_sweep") return std::make_unique<E18Sweep>();
  if (name == "stage3_entk") return std::make_unique<Stage3Entk>();
  if (name == "durable_chaos") return std::make_unique<DurableChaos>();
  return nullptr;
}

}  // namespace perfbench
