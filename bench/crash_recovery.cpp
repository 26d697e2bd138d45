// E20 — crash recovery economics (bench/crash_recovery).
//
// Three durability claims from the ISSUE, priced on one harness:
//
//   (a) checkpoint interval vs wasted core-seconds: a controller crash at
//       ~60% of a campaign's makespan throws away everything since the last
//       snapshot. Sweeping CheckpointPolicy::interval_every over
//       {15,30,60,120,240}s against restart-from-scratch, the default 60s
//       interval must cut wasted core-seconds by >= 70% (gate
//       `resume_cuts_waste_70pct`), and forensics blame closure (< 1e-6)
//       must hold on the resumed run (gate `blame_closure_on_resume`);
//   (b) service recovery is bit-reproducible: the same seeded campaign with
//       the same scheduled ServiceCrash yields byte-identical journals and
//       schedules across two runs (gate `recovery_deterministic`);
//   (c) brownout parks instead of dropping: the degraded-mode campaign
//       finishes with zero shed and zero failed submissions (gate
//       `brownout_no_loss`).
//
// Waste is measured end to end: (crashed-epoch busy + waste) + (resumed-
// epoch busy + waste) minus the uninterrupted run's busy core-seconds —
// i.e. every core-second the fault cost beyond what the work was worth.
//
// Deterministic in the seeds: CI runs HHC_BENCH_SMOKE twice and byte-diffs
// bench_results/crash_recovery.csv. Full runs also write ./BENCH_recovery.json
// (committed; CI validates schema + gates via `--validate`).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "obs/forensics/critical_path.hpp"
#include "resilience/chaos.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace hhc;

namespace {

constexpr int kSchemaVersion = 1;
constexpr double kCrashFraction = 0.6;   ///< Crash at this share of makespan.
constexpr double kDefaultInterval = 60.0;
constexpr double kIntervals[] = {15.0, 30.0, 60.0, 120.0, 240.0};

struct Harness {
  std::unique_ptr<core::Toolkit> toolkit;
  std::unique_ptr<federation::Broker> broker;
};

Harness make_harness() {
  Harness h;
  h.toolkit = std::make_unique<core::Toolkit>();
  (void)h.toolkit->add_hpc("alpha",
                           cluster::homogeneous_cluster(2, 16, gib(64)));
  (void)h.toolkit->add_hpc("beta",
                           cluster::homogeneous_cluster(2, 16, gib(64)));
  federation::BrokerConfig bc;
  bc.policy = "heft-sites";
  h.broker = std::make_unique<federation::Broker>(bc);
  h.broker->add_site(h.toolkit->describe_environment(0));
  h.broker->add_site(h.toolkit->describe_environment(1));
  return h;
}

/// The crashed campaign: a layered DAG long enough (~8 min) that every swept
/// interval snapshots at least once before the crash point. Runtimes are a
/// fixed arithmetic pattern — no RNG, so the workload is the same bytes in
/// every mode.
wf::Workflow make_campaign(std::size_t layers, std::size_t width) {
  wf::Workflow w("campaign");
  std::vector<wf::TaskId> prev, cur;
  for (std::size_t l = 0; l < layers; ++l) {
    cur.clear();
    for (std::size_t i = 0; i < width; ++i) {
      wf::TaskSpec t;
      t.name = "l" + std::to_string(l) + "t" + std::to_string(i);
      t.kind = "step";
      t.base_runtime = 50.0 + static_cast<double>((l * width + i) * 7 % 40);
      t.resources.cores_per_node = 1.0;
      cur.push_back(w.add_task(t));
    }
    if (l > 0)
      for (std::size_t i = 0; i < width; ++i)
        w.add_dependency(prev[i], cur[i], mib(8 + 8 * (i % 3)));
    prev = cur;
  }
  return w;
}

double busy_core_seconds(const core::CompositeReport& r) {
  double busy = 0.0;
  for (const core::EnvironmentReport& e : r.environments)
    busy += e.busy_core_seconds;
  return busy;
}

/// One swept recovery strategy: a checkpoint interval, or restart-from-
/// scratch when `interval` is 0.
struct RecoveryPoint {
  double interval = 0.0;  ///< 0 = no checkpoints (restart from scratch).
  std::size_t checkpoints_taken = 0;
  std::size_t resumed_tasks = 0;
  double crashed_cost = 0.0;  ///< Busy + waste booked before the crash.
  double resumed_cost = 0.0;  ///< Busy + waste booked by the second epoch.
  double waste = 0.0;         ///< Total cost minus the uninterrupted cost.
  double recovery_makespan = 0.0;  ///< Second epoch's wall (sim) time.
  double closure_error = 0.0;      ///< Blame closure on the resumed run.
};

RecoveryPoint run_recovery(const wf::Workflow& w, double crash_at,
                           double baseline_busy, double interval) {
  RecoveryPoint point;
  point.interval = interval;

  // Epoch 1: run under the policy, crash (abort) mid-flight.
  Harness before = make_harness();
  std::optional<resilience::RunCheckpoint> latest;
  core::RunOptions options;
  if (interval > 0.0) {
    options.checkpoints = resilience::CheckpointPolicy::interval_every(interval);
    options.on_checkpoint = [&](const resilience::RunCheckpoint& ck) {
      latest = ck;
    };
  }
  std::optional<core::CompositeReport> crashed;
  const std::uint64_t id = before.toolkit->start_run(
      w, *before.broker, options, [](const core::CompositeReport&) {});
  before.toolkit->simulation().schedule_at(crash_at, [&] {
    crashed = before.toolkit->abort_run(id, "controller crash");
  });
  before.toolkit->simulation().run();
  point.checkpoints_taken = crashed->checkpoints_taken;
  point.crashed_cost =
      busy_core_seconds(*crashed) + crashed->wasted_core_seconds;

  // Epoch 2: the restarted controller resumes from the latest snapshot (or
  // from zero without one).
  Harness after = make_harness();
  core::CompositeReport second;
  if (latest) {
    core::RunOptions resume;
    resume.resume_from = &*latest;
    second = after.toolkit->run(w, *after.broker, resume);
    point.closure_error =
        obs::forensics::critical_path(after.toolkit->ledger()).closure_error();
  } else {
    second = after.toolkit->run(w, *after.broker);
  }
  if (!second.success) {
    std::fprintf(stderr, "FATAL: recovery epoch failed: %s\n",
                 second.error.c_str());
    std::exit(1);
  }
  point.resumed_tasks = second.resumed_tasks;
  point.resumed_cost = busy_core_seconds(second) + second.wasted_core_seconds;
  point.recovery_makespan = second.makespan;
  point.waste = point.crashed_cost + point.resumed_cost - baseline_busy;
  return point;
}

/// Service campaign used by parts (b) and (c): arrivals outpace two run
/// slots, so the crash/brownout always lands on in-flight work.
service::TenantConfig tenant(const std::string& name, double rate,
                             std::size_t subs, int priority) {
  service::TenantConfig tc;
  tc.name = name;
  tc.priority = priority;
  tc.arrivals.rate = rate;
  tc.workload.shapes = {"chain", "fork-join"};
  tc.workload.scale = 3;
  tc.workload.params.runtime_mean = 60.0;
  tc.workload.params.data_mean = mib(16);
  tc.max_submissions = subs;
  return tc;
}

std::string schedule_string(const service::WorkflowService& svc) {
  std::ostringstream out;
  out.precision(17);
  for (const service::Submission& sub : svc.submissions())
    out << sub.seq << ' ' << sub.tenant << ' ' << static_cast<int>(sub.state)
        << ' ' << sub.arrived << ' ' << sub.launched << ' ' << sub.finished
        << ' ' << sub.consumed_core_seconds << '\n';
  return out.str();
}

struct ServiceOutcome {
  service::ServiceReport report;
  std::string schedule;
  std::string journal;
};

ServiceOutcome run_crashed_campaign(std::size_t subs_per_tenant) {
  Harness h = make_harness();
  service::ServiceConfig cfg;
  cfg.seed = 7;
  cfg.horizon = 6 * 3600.0;
  cfg.policy = "fair-share";
  cfg.run_slots = 2;
  cfg.tenants = {tenant("ana", 1.0 / 60.0, subs_per_tenant, 0),
                 tenant("bob", 1.0 / 80.0, subs_per_tenant, 0)};
  cfg.durability.journal = true;
  cfg.durability.checkpoints =
      resilience::CheckpointPolicy::every_completions(1);
  cfg.durability.restart_delay = 30.0;

  resilience::ChaosConfig ccfg;
  resilience::ChaosEvent crash;
  crash.time = 150.0;
  crash.kind = resilience::ChaosKind::ServiceCrash;
  ccfg.scheduled = {crash};
  resilience::ChaosEngine chaos(ccfg);

  service::WorkflowService svc(*h.toolkit, *h.broker, cfg);
  svc.attach_chaos(&chaos);
  ServiceOutcome out;
  out.report = svc.run();
  out.schedule = schedule_string(svc);
  out.journal = svc.journal().dump_jsonl();
  return out;
}

service::ServiceReport run_brownout_campaign(std::size_t flood_subs) {
  Harness h = make_harness();
  service::ServiceConfig cfg;
  cfg.seed = 7;
  cfg.horizon = 6 * 3600.0;
  cfg.policy = "fair-share";
  cfg.run_slots = 2;
  cfg.tenants = {tenant("gold", 1.0 / 100.0, 5, 1),
                 tenant("free", 1.0 / 20.0, flood_subs, 0)};
  cfg.durability.journal = true;
  cfg.durability.brownout.enabled = true;
  cfg.durability.brownout.enter_backlog_seconds = 10.0;
  cfg.durability.brownout.exit_backlog_seconds = 3.0;
  cfg.durability.brownout.min_dwell = 120.0;
  cfg.durability.brownout.protect_priority = 1;
  service::WorkflowService svc(*h.toolkit, *h.broker, cfg);
  return svc.run();
}

// --- output --------------------------------------------------------------

std::string points_csv(const std::vector<RecoveryPoint>& points,
                       double restart_waste) {
  std::ostringstream out;
  out << "strategy,checkpoints_taken,resumed_tasks,crashed_cost,"
         "resumed_cost,waste_core_seconds,waste_vs_restart_pct,"
         "recovery_makespan,closure_error\n";
  for (const RecoveryPoint& p : points) {
    const std::string strategy =
        p.interval > 0 ? "interval_" + fmt_fixed(p.interval, 0) : "restart";
    out << strategy << ',' << p.checkpoints_taken << ',' << p.resumed_tasks
        << ',' << fmt_fixed(p.crashed_cost, 1) << ','
        << fmt_fixed(p.resumed_cost, 1) << ',' << fmt_fixed(p.waste, 1) << ','
        << fmt_fixed(restart_waste > 0 ? 100.0 * p.waste / restart_waste : 0.0,
                     1)
        << ',' << fmt_fixed(p.recovery_makespan, 3) << ','
        << (p.interval > 0 ? fmt_fixed(p.closure_error, 9) : "n/a") << '\n';
  }
  return out.str();
}

Json doc_json(const std::vector<RecoveryPoint>& points, double restart_waste,
              const ServiceOutcome& svc, bool deterministic,
              const service::ServiceReport& brownout, bool smoke,
              bool waste_ok, bool closure_ok, bool brownout_ok) {
  Json arr = Json::array();
  for (const RecoveryPoint& p : points) {
    Json o = Json::object();
    o.set("interval", p.interval);
    o.set("checkpoints_taken", static_cast<double>(p.checkpoints_taken));
    o.set("resumed_tasks", static_cast<double>(p.resumed_tasks));
    o.set("crashed_cost", p.crashed_cost);
    o.set("resumed_cost", p.resumed_cost);
    o.set("waste_core_seconds", p.waste);
    o.set("waste_vs_restart",
          restart_waste > 0 ? p.waste / restart_waste : 0.0);
    o.set("recovery_makespan", p.recovery_makespan);
    o.set("closure_error", p.closure_error);
    arr.push_back(std::move(o));
  }
  Json service = Json::object();
  service.set("crashes", static_cast<double>(svc.report.crashes));
  service.set("recoveries", static_cast<double>(svc.report.recoveries));
  service.set("resumed_runs", static_cast<double>(svc.report.resumed_runs));
  service.set("submitted", static_cast<double>(svc.report.submitted));
  service.set("completed", static_cast<double>(svc.report.completed));
  service.set("journal_records",
              static_cast<double>(svc.journal.empty() ? 0 : 1));
  Json degraded = Json::object();
  degraded.set("brownout_entries",
               static_cast<double>(brownout.brownout_entries));
  degraded.set("suspended_runs", static_cast<double>(brownout.suspended_runs));
  degraded.set("resumed_runs", static_cast<double>(brownout.resumed_runs));
  degraded.set("shed", static_cast<double>(brownout.shed));
  degraded.set("failed", static_cast<double>(brownout.failed));
  degraded.set("completed", static_cast<double>(brownout.completed));
  Json gates = Json::object();
  gates.set("resume_cuts_waste_70pct", waste_ok);
  gates.set("blame_closure_on_resume", closure_ok);
  gates.set("recovery_deterministic", deterministic);
  gates.set("brownout_no_loss", brownout_ok);
  Json doc = Json::object();
  doc.set("schema_version", static_cast<double>(kSchemaVersion));
  doc.set("bench", "crash_recovery");
  doc.set("mode", smoke ? "smoke" : "full");
  doc.set("crash_fraction", kCrashFraction);
  doc.set("default_interval", kDefaultInterval);
  doc.set("gates", std::move(gates));
  doc.set("points", std::move(arr));
  doc.set("service", std::move(service));
  doc.set("brownout", std::move(degraded));
  return doc;
}

// --- --validate: CI schema check over the committed BENCH_recovery.json --

int validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "validate: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "validate: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "validate: %s: %s\n", path.c_str(), why.c_str());
    return 1;
  };
  if (!doc.contains("schema_version") ||
      static_cast<int>(doc.at("schema_version").as_number()) != kSchemaVersion)
    return fail("schema_version missing or stale (expected " +
                std::to_string(kSchemaVersion) +
                ") — regenerate with a full run and commit the result");
  if (!doc.contains("bench") || doc.at("bench").as_string() != "crash_recovery")
    return fail("bench name mismatch");
  if (!doc.contains("mode") || doc.at("mode").as_string() != "full")
    return fail("committed results must come from a full run, not smoke");
  if (!doc.contains("gates") || !doc.at("gates").is_object())
    return fail("gates object missing");
  for (const char* gate :
       {"resume_cuts_waste_70pct", "blame_closure_on_resume",
        "recovery_deterministic", "brownout_no_loss"}) {
    if (!doc.at("gates").contains(gate) || !doc.at("gates").at(gate).as_bool())
      return fail(std::string("gate '") + gate +
                  "' missing or false — the committed run must pass every "
                  "E20 acceptance gate");
  }
  if (!doc.contains("points") || !doc.at("points").is_array())
    return fail("points array missing");
  auto find = [&](double interval) -> const Json* {
    for (const Json& p : doc.at("points").as_array())
      if (p.contains("interval") && p.at("interval").as_number() == interval)
        return &p;
    return nullptr;
  };
  static const char* kKeys[] = {"checkpoints_taken", "resumed_tasks",
                                "crashed_cost",      "resumed_cost",
                                "waste_core_seconds", "waste_vs_restart",
                                "recovery_makespan", "closure_error"};
  std::vector<double> wanted(std::begin(kIntervals), std::end(kIntervals));
  wanted.push_back(0.0);  // the restart-from-scratch point
  for (const double interval : wanted) {
    const Json* p = find(interval);
    if (!p)
      return fail("missing point for interval " + fmt_fixed(interval, 0));
    for (const char* key : kKeys)
      if (!p->contains(key) || !p->at(key).is_number())
        return fail("point interval=" + fmt_fixed(interval, 0) +
                    " lacks numeric '" + key + "'");
  }
  const Json* dflt = find(kDefaultInterval);
  if (dflt->at("waste_vs_restart").as_number() > 0.3)
    return fail("default-interval point no longer cuts waste by 70%");
  for (const char* section : {"service", "brownout"})
    if (!doc.contains(section) || !doc.at(section).is_object())
      return fail(std::string(section) + " object missing");
  std::printf("validate: %s OK (schema v%d, %zu points, gates pass)\n",
              path.c_str(), kSchemaVersion,
              doc.at("points").as_array().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--validate")
    return validate(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--validate BENCH_recovery.json]\n",
                 argv[0]);
    return 2;
  }

  const bool smoke = env_flag("HHC_BENCH_SMOKE");

  std::cout << "=== E20 crash recovery: checkpoint interval vs wasted "
               "core-seconds, deterministic service recovery, brownout ===\n\n";

  // --- (a) checkpoint interval sweep -------------------------------------
  const wf::Workflow w =
      smoke ? make_campaign(6, 8) : make_campaign(10, 12);
  Harness base = make_harness();
  const core::CompositeReport fresh = base.toolkit->run(w, *base.broker);
  if (!fresh.success) {
    std::fprintf(stderr, "FATAL: baseline run failed: %s\n",
                 fresh.error.c_str());
    return 1;
  }
  const double baseline_busy = busy_core_seconds(fresh);
  const double crash_at = kCrashFraction * fresh.makespan;
  std::printf(
      "baseline: %zu tasks, makespan %.0f s, %.0f core-s useful work; "
      "crash injected at %.0f s (%.0f%%)\n\n",
      w.task_count(), fresh.makespan, baseline_busy, crash_at,
      kCrashFraction * 100);

  std::vector<RecoveryPoint> points;
  points.push_back(run_recovery(w, crash_at, baseline_busy, 0.0));
  const double restart_waste = points[0].waste;
  for (const double interval : kIntervals)
    points.push_back(run_recovery(w, crash_at, baseline_busy, interval));

  TextTable t("Checkpoint interval vs crash cost");
  t.header({"strategy", "ckpts", "resumed", "waste core-s", "vs restart",
            "recovery wall"});
  for (const RecoveryPoint& p : points)
    t.row({p.interval > 0 ? fmt_duration(p.interval) : "restart",
           std::to_string(p.checkpoints_taken),
           std::to_string(p.resumed_tasks), fmt_fixed(p.waste, 0),
           fmt_fixed(restart_waste > 0 ? 100 * p.waste / restart_waste : 0, 1) +
               "%",
           fmt_duration(p.recovery_makespan)});
  std::cout << t.render() << "\n";

  bool waste_ok = false, closure_ok = false;
  for (const RecoveryPoint& p : points) {
    if (p.interval != kDefaultInterval) continue;
    waste_ok = p.waste <= 0.3 * restart_waste;
    closure_ok = p.closure_error < 1e-6;
    std::printf(
        "gate: interval %.0fs wastes %.0f core-s vs %.0f restarting "
        "(%.1f%%, need <= 30%%) — %s\n",
        kDefaultInterval, p.waste, restart_waste,
        restart_waste > 0 ? 100 * p.waste / restart_waste : 0,
        waste_ok ? "ok" : "FAIL");
    std::printf("gate: blame closure on the resumed run %.2e (< 1e-6) — %s\n",
                p.closure_error, closure_ok ? "ok" : "FAIL");
  }

  // --- (b) deterministic service recovery --------------------------------
  const std::size_t subs = smoke ? 6 : 10;
  const ServiceOutcome s1 = run_crashed_campaign(subs);
  const ServiceOutcome s2 = run_crashed_campaign(subs);
  const bool deterministic = s1.schedule == s2.schedule &&
                             s1.journal == s2.journal &&
                             s1.report.crashes == 1 &&
                             s1.report.recoveries == 1;
  std::printf(
      "\nservice: %zu submissions, %zu crash(es), %zu recovery(ies), %zu "
      "resumed, %zu completed; journals byte-identical across two runs — "
      "%s\n",
      s1.report.submitted, s1.report.crashes, s1.report.recoveries,
      s1.report.resumed_runs, s1.report.completed,
      deterministic ? "ok" : "FAIL");

  // --- (c) brownout parks instead of shedding ----------------------------
  const service::ServiceReport bo = run_brownout_campaign(smoke ? 8 : 12);
  const bool brownout_ok = bo.brownout_entries >= 1 && bo.shed == 0 &&
                           bo.failed == 0 && bo.completed == bo.submitted;
  std::printf(
      "brownout: %zu entries, %zu suspensions, %zu resumes; %zu/%zu "
      "completed, %zu shed, %zu failed — %s\n\n",
      bo.brownout_entries, bo.suspended_runs, bo.resumed_runs, bo.completed,
      bo.submitted, bo.shed, bo.failed, brownout_ok ? "ok" : "FAIL");

  write_file("bench_results/crash_recovery.csv",
             points_csv(points, restart_waste));
  const std::string json =
      doc_json(points, restart_waste, s1, deterministic, bo, smoke, waste_ok,
               closure_ok, brownout_ok)
          .dump_pretty() +
      "\n";
  write_file("bench_results/BENCH_recovery.json", json);
  std::cout << "wrote bench_results/crash_recovery.csv, "
               "bench_results/BENCH_recovery.json";
  if (!smoke) {
    write_file("BENCH_recovery.json", json);
    std::cout << " and ./BENCH_recovery.json";
  }
  std::cout << "\n";

  if (!waste_ok || !closure_ok || !deterministic || !brownout_ok) return 1;
  std::cout << "PASS: waste, closure, determinism and brownout gates hold\n";
  return 0;
}
