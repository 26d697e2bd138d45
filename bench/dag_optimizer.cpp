// E19 — forensics-driven DAG optimization (bench/dag_optimizer).
//
// Three scenarios, each run twice through core::Toolkit: a baseline pass
// whose TaskLedger feeds obs::forensics::task_cost_profiles into a
// ForensicsCostModel (catalog-bound, so dataset sizes come from the fabric
// registry), then the wf::opt pipeline rewrites the DAG and the optimized
// workflow re-runs with its RewriteLog:
//
//   chain  — 24 ten-second tasks on a cloud pool with a 120 s per-attempt
//            boot: chain fusion collapses the run 8:1, paying boot three
//            times instead of twenty-four;
//   fanout — one HPC producer, 16 cloud consumers sharing a 2 GiB input on
//            a two-slot pool: sibling clustering batches consumers 8:1,
//            amortizing boot + stage-in across each batch;
//   split  — a divisible 1200 s whale beside 120 s peers on an 8-node
//            cluster: shard splitting spreads it across idle nodes.
//
// Gates: chain and fanout cut both makespan and attempt (shard) count, the
// run-diff attributes >= 60% of each win to non-compute phases (queue wait,
// stage-in, overhead — not compute, which rewrites preserve), split cuts
// makespan, both blame reports close, and an optimizer-off run is
// byte-identical to the plain baseline. The per-scenario phase-delta CSV
// (bench_results/dag_optimizer.csv) is CI's two-run byte-diff artifact;
// full runs commit BENCH_optimizer.json at the repo root (CI `--validate`s
// its schema and gate booleans).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "cws/strategies.hpp"
#include "obs/forensics/costfeed.hpp"
#include "obs/forensics/critical_path.hpp"
#include "obs/forensics/rundiff.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workflow/generators.hpp"
#include "workflow/opt/optimizer.hpp"

using namespace hhc;
namespace fx = obs::forensics;

namespace {

constexpr int kSchemaVersion = 1;
constexpr double kMinNonComputeShare = 0.6;
const char* const kScenarioNames[] = {"chain", "fanout", "split"};

struct Scenario {
  std::string name;
  wf::Workflow workflow{std::string("wf")};
  std::vector<core::EnvironmentId> assignment;
  wf::opt::OptimizerConfig opt;
};

// Fresh, identically-configured toolkit per run: both passes of a scenario
// see the same world, so the diff isolates the rewrite.
std::unique_ptr<core::Toolkit> make_toolkit(const std::string& scenario) {
  auto tk = std::make_unique<core::Toolkit>();
  if (scenario == "chain") {
    (void)tk->add_cloud("cloud", /*max_instances=*/4, /*cores=*/8, gib(32),
                        /*boot_overhead=*/120.0);
  } else if (scenario == "fanout") {
    (void)tk->add_hpc("hpc", cluster::homogeneous_cluster(1, 8, gib(32)));
    (void)tk->add_cloud("cloud", /*max_instances=*/2, /*cores=*/2, gib(16),
                        /*boot_overhead=*/60.0);
  } else {  // split
    (void)tk->add_hpc("hpc", cluster::homogeneous_cluster(8, 8, gib(32)));
  }
  return tk;
}

Scenario chain_scenario(bool smoke) {
  Scenario sc;
  sc.name = "chain";
  const std::size_t n = smoke ? 12 : 24;
  sc.workflow = wf::Workflow("boot-bound-chain");
  wf::TaskId prev = wf::kInvalidTask;
  for (std::size_t i = 0; i < n; ++i) {
    wf::TaskSpec t;
    t.name = "step" + std::to_string(i);
    t.kind = "step";
    t.base_runtime = 10.0;
    t.resources.cores_per_node = 2.0;
    t.output_bytes = mib(64);
    const wf::TaskId id = sc.workflow.add_task(t);
    if (prev != wf::kInvalidTask) sc.workflow.add_dependency(prev, id, mib(64));
    prev = id;
  }
  sc.assignment.assign(n, 0);
  return sc;
}

Scenario fanout_scenario(bool smoke) {
  Scenario sc;
  sc.name = "fanout";
  const std::size_t width = smoke ? 8 : 16;
  wf::GenParams p;
  p.runtime_mean = 10.0;
  p.data_mean = mib(8);
  sc.workflow = wf::make_shared_input_fanout(width, gib(2), Rng(5), p);
  // prepare (task 0) and reduce (task 1) on the HPC site; consumers cloud.
  sc.assignment.assign(sc.workflow.task_count(), 1);
  sc.assignment[0] = 0;
  sc.assignment[1] = 0;
  return sc;
}

Scenario split_scenario(bool smoke) {
  Scenario sc;
  sc.name = "split";
  sc.workflow = wf::Workflow("whale-forkjoin");
  const auto add = [&sc](const std::string& name, const std::string& kind,
                         double runtime) {
    wf::TaskSpec t;
    t.name = name;
    t.kind = kind;
    t.base_runtime = runtime;
    t.resources.cores_per_node = 8.0;  // one full node per task
    return sc.workflow.add_task(t);
  };
  const wf::TaskId src = add("scatter", "scatter", 10.0);
  const wf::TaskId sink = add("gather", "gather", 10.0);
  const std::size_t peers = smoke ? 3 : 7;
  std::vector<wf::TaskId> level;
  for (std::size_t i = 0; i < peers; ++i)
    level.push_back(add("peer" + std::to_string(i), "work", 120.0));
  wf::TaskSpec whale;
  whale.name = "whale";
  whale.kind = "work";
  whale.base_runtime = 1200.0;
  whale.resources.cores_per_node = 8.0;
  whale.params[wf::opt::kDivisibleParam] = "1";
  whale.input_bytes = gib(1);
  whale.output_bytes = gib(1);
  level.push_back(sc.workflow.add_task(whale));
  for (wf::TaskId t : level) {
    sc.workflow.add_dependency(src, t, mib(64));
    sc.workflow.add_dependency(t, sink, mib(16));
  }
  sc.assignment.assign(sc.workflow.task_count(), 0);
  return sc;
}

struct RunArtifacts {
  core::CompositeReport report;
  fx::TaskLedger ledger;  // copy: outlives the toolkit for diffing
  fx::BlameReport blame;
};

struct ScenarioResult {
  std::string name;
  RunArtifacts before, after;
  std::size_t tasks_before = 0, tasks_after = 0;
  std::size_t fused = 0, clustered = 0, split = 0;
  fx::RunDiff diff;
  double win = 0.0;              ///< Makespan reduction, seconds.
  double non_compute_win = 0.0;  ///< Reduction from non-compute phases.
  std::string rewrite_table;
};

/// Probes the workflow registry id the baseline run used, so the optimizer's
/// catalog lookups use the same content addresses the run published.
int find_wf_id(const fabric::DataCatalog& catalog, const wf::Workflow& w) {
  for (int id = 0; id < 8; ++id)
    for (const wf::Edge& e : w.edges())
      if (e.data_bytes > 0 &&
          catalog.known(cws::edge_dataset_id(id, e.from, e.data_bytes)))
        return id;
  return -1;
}

ScenarioResult run_scenario(const Scenario& sc) {
  ScenarioResult res;
  res.name = sc.name;

  // Baseline pass: the forensics feed.
  auto tk1 = make_toolkit(sc.name);
  res.before.report = tk1->run(sc.workflow, sc.assignment);
  if (!res.before.report.success)
    throw std::runtime_error(sc.name + " baseline failed: " +
                             res.before.report.error);
  res.before.ledger = tk1->ledger();
  res.before.blame = fx::critical_path(res.before.ledger);

  // Yesterday's blame decides today's rewrite: ledger profiles drive the
  // cost model, the fabric catalog supplies authoritative dataset sizes.
  wf::opt::StaticCostConfig fallback;
  fallback.stage_bandwidth = 50e6;
  wf::opt::ForensicsCostModel model(fx::task_cost_profiles(res.before.ledger),
                                    fallback);
  const int wf_id = find_wf_id(tk1->staging().catalog(), sc.workflow);
  if (wf_id >= 0)
    model.bind_catalog(&tk1->staging().catalog(),
                       [wf_id](const wf::Workflow&, wf::TaskId producer,
                               Bytes bytes) {
                         return cws::edge_dataset_id(wf_id, producer, bytes);
                       });
  const wf::opt::OptimizeResult opt =
      wf::opt::optimize(sc.workflow, model, sc.opt);
  res.tasks_before = opt.tasks_before();
  res.tasks_after = opt.tasks_after();
  res.fused = opt.log.count(wf::opt::RewriteKind::FuseChain);
  res.clustered = opt.log.count(wf::opt::RewriteKind::ClusterSiblings);
  res.split = opt.log.count(wf::opt::RewriteKind::SplitShards);
  res.rewrite_table = opt.log.table();

  // Optimized pass: constituent-aware execution through the rewrite log.
  auto tk2 = make_toolkit(sc.name);
  core::RunOptions rewrites;
  rewrites.rewrites = &opt.log;
  res.after.report =
      tk2->run(opt.workflow, opt.log.map_per_task(sc.assignment), rewrites);
  if (!res.after.report.success)
    throw std::runtime_error(sc.name + " optimized failed: " +
                             res.after.report.error);
  res.after.ledger = tk2->ledger();
  res.after.blame = fx::critical_path(res.after.ledger);

  res.diff = fx::diff_reports(res.before.ledger, res.before.blame,
                              res.after.ledger, res.after.blame,
                              sc.name + "-baseline", sc.name + "-optimized");
  res.win = -res.diff.makespan_delta();
  for (const fx::PhaseDelta& pd : res.diff.phases)
    if (pd.phase != fx::BlamePhase::Compute) res.non_compute_win -= pd.delta();
  return res;
}

// --- gates ----------------------------------------------------------------

bool scenario_gates(const ScenarioResult& r, bool& attribution_ok) {
  bool ok = true;
  const bool needs_fewer_attempts = r.name != "split";
  std::printf(
      "%s: makespan %.1f -> %.1f s (win %.1f s, %.0f%% non-compute), "
      "tasks %zu -> %zu, attempts %zu -> %zu\n",
      r.name.c_str(), r.diff.makespan_before, r.diff.makespan_after, r.win,
      r.win > 0 ? 100.0 * r.non_compute_win / r.win : 0.0, r.tasks_before,
      r.tasks_after, r.before.ledger.size(), r.after.ledger.size());
  if (r.win <= 0.0) {
    std::fprintf(stderr, "FAIL: %s did not reduce the makespan\n",
                 r.name.c_str());
    ok = false;
  }
  if (needs_fewer_attempts &&
      r.after.ledger.size() >= r.before.ledger.size()) {
    std::fprintf(stderr, "FAIL: %s did not reduce the attempt count\n",
                 r.name.c_str());
    ok = false;
  }
  if (needs_fewer_attempts &&
      (r.win <= 0.0 || r.non_compute_win < kMinNonComputeShare * r.win)) {
    std::fprintf(stderr,
                 "FAIL: %s win not attributed to non-compute phases\n",
                 r.name.c_str());
    attribution_ok = false;
  }
  if (r.before.blame.closure_error() > 1e-6 ||
      r.after.blame.closure_error() > 1e-6) {
    std::fprintf(stderr, "FAIL: %s blame report did not close\n",
                 r.name.c_str());
    ok = false;
  }
  return ok;
}

/// The do-no-harm gate: optimizer off must reproduce the plain run byte for
/// byte (provenance CSV and critical-path CSV both identical).
bool optimizer_off_identical(const Scenario& sc) {
  auto plain = make_toolkit(sc.name);
  (void)plain->run(sc.workflow, sc.assignment);

  const wf::opt::StaticCostModel model;
  wf::opt::OptimizerConfig off;
  off.enabled = false;
  const wf::opt::OptimizeResult res = wf::opt::optimize(sc.workflow, model, off);
  auto logged = make_toolkit(sc.name);
  core::RunOptions rewrites;
  rewrites.rewrites = &res.log;
  (void)logged->run(res.workflow, res.log.map_per_task(sc.assignment), rewrites);

  const bool same =
      plain->provenance().csv() == logged->provenance().csv() &&
      fx::path_csv(fx::critical_path(plain->ledger())) ==
          fx::path_csv(fx::critical_path(logged->ledger()));
  std::printf("optimizer-off (%s): %s\n", sc.name.c_str(),
              same ? "byte-identical to plain run" : "DIVERGED");
  return same;
}

// --- output ---------------------------------------------------------------

std::string phases_csv(const std::vector<ScenarioResult>& results) {
  std::ostringstream out;
  out << "scenario,phase,before_s,after_s,delta_s\n";
  for (const ScenarioResult& r : results)
    for (const fx::PhaseDelta& pd : r.diff.phases)
      out << r.name << ',' << fx::to_string(pd.phase) << ','
          << fmt_fixed(pd.before, 6) << ',' << fmt_fixed(pd.after, 6) << ','
          << fmt_fixed(pd.delta(), 6) << '\n';
  return out.str();
}

Json results_json(const std::vector<ScenarioResult>& results, bool smoke,
                  bool scenarios_ok, bool attribution_ok, bool off_ok) {
  Json arr = Json::array();
  for (const ScenarioResult& r : results) {
    Json o = Json::object();
    o.set("scenario", r.name);
    o.set("makespan_before", r.diff.makespan_before);
    o.set("makespan_after", r.diff.makespan_after);
    o.set("tasks_before", static_cast<double>(r.tasks_before));
    o.set("tasks_after", static_cast<double>(r.tasks_after));
    o.set("attempts_before", static_cast<double>(r.before.ledger.size()));
    o.set("attempts_after", static_cast<double>(r.after.ledger.size()));
    o.set("chains_fused", static_cast<double>(r.fused));
    o.set("siblings_clustered", static_cast<double>(r.clustered));
    o.set("tasks_split", static_cast<double>(r.split));
    o.set("fused_tasks_run", static_cast<double>(r.after.report.fused_tasks_run));
    o.set("constituents_completed",
          static_cast<double>(r.after.report.constituents_completed));
    o.set("win_seconds", r.win);
    o.set("non_compute_win_seconds", r.non_compute_win);
    arr.push_back(std::move(o));
  }
  Json gates = Json::object();
  gates.set("every_scenario_reduces_makespan", scenarios_ok);
  gates.set("win_attributed_to_non_compute", attribution_ok);
  gates.set("optimizer_off_byte_identical", off_ok);
  Json doc = Json::object();
  doc.set("schema_version", static_cast<double>(kSchemaVersion));
  doc.set("bench", "dag_optimizer");
  doc.set("mode", smoke ? "smoke" : "full");
  doc.set("min_non_compute_share", kMinNonComputeShare);
  doc.set("gates", std::move(gates));
  doc.set("scenarios", std::move(arr));
  return doc;
}

// --- --validate: CI schema check over the committed BENCH_optimizer.json --

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
  if (!doc.contains("bench") || doc.at("bench").as_string() != "dag_optimizer")
    return fail("bench name mismatch");
  if (!doc.contains("mode") || doc.at("mode").as_string() != "full")
    return fail("committed results must come from a full run, not smoke");
  if (!doc.contains("gates") || !doc.at("gates").is_object())
    return fail("gates object missing");
  for (const char* gate :
       {"every_scenario_reduces_makespan", "win_attributed_to_non_compute",
        "optimizer_off_byte_identical"}) {
    if (!doc.at("gates").contains(gate) || !doc.at("gates").at(gate).as_bool())
      return fail(std::string("gate '") + gate +
                  "' missing or false — the committed run must pass every "
                  "E19 acceptance gate");
  }
  if (!doc.contains("scenarios") || !doc.at("scenarios").is_array())
    return fail("scenarios array missing");
  static const char* kKeys[] = {
      "makespan_before", "makespan_after",  "tasks_before",
      "tasks_after",     "attempts_before", "attempts_after",
      "win_seconds",     "non_compute_win_seconds"};
  for (const char* name : kScenarioNames) {
    const Json* found = nullptr;
    for (const Json& s : doc.at("scenarios").as_array())
      if (s.contains("scenario") && s.at("scenario").as_string() == name)
        found = &s;
    if (!found) return fail(std::string("missing scenario '") + name + "'");
    for (const char* key : kKeys)
      if (!found->contains(key) || !found->at(key).is_number())
        return fail(std::string("scenario '") + name + "' lacks numeric '" +
                    key + "'");
    if (found->at("makespan_after").as_number() >=
        found->at("makespan_before").as_number())
      return fail(std::string("scenario '") + name +
                  "' shows no makespan reduction");
    if (std::string(name) != "split" &&
        found->at("attempts_after").as_number() >=
            found->at("attempts_before").as_number())
      return fail(std::string("scenario '") + name +
                  "' shows no attempt-count reduction");
  }
  std::printf("validate: %s OK (schema v%d, %zu scenarios, gates pass)\n",
              path.c_str(), kSchemaVersion,
              doc.at("scenarios").as_array().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--validate")
    return validate(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--validate BENCH_optimizer.json]\n",
                 argv[0]);
    return 2;
  }

  const bool smoke = env_flag("HHC_BENCH_SMOKE");
  std::cout << "=== E19 forensics-driven DAG optimization: fuse / cluster / "
               "split ===\n\n";

  std::vector<Scenario> scenarios;
  scenarios.push_back(chain_scenario(smoke));
  scenarios.push_back(fanout_scenario(smoke));
  scenarios.push_back(split_scenario(smoke));

  std::vector<ScenarioResult> results;
  bool scenarios_ok = true;
  bool attribution_ok = true;
  for (const Scenario& sc : scenarios) {
    ScenarioResult r = run_scenario(sc);
    std::cout << r.rewrite_table << "\n";
    scenarios_ok = scenario_gates(r, attribution_ok) && scenarios_ok;
    results.push_back(std::move(r));
  }
  std::cout << "\n";

  TextTable t("E19 scenario sweep (baseline vs forensics-optimized)");
  t.header({"scenario", "tasks", "attempts", "makespan", "win",
            "non-compute", "rewrites"});
  for (const ScenarioResult& r : results)
    t.row({r.name,
           std::to_string(r.tasks_before) + " -> " +
               std::to_string(r.tasks_after),
           std::to_string(r.before.ledger.size()) + " -> " +
               std::to_string(r.after.ledger.size()),
           fmt_duration(r.diff.makespan_before) + " -> " +
               fmt_duration(r.diff.makespan_after),
           fmt_duration(r.win),
           r.win > 0 ? fmt_pct(r.non_compute_win / r.win) : "-",
           std::to_string(r.fused) + "f/" + std::to_string(r.clustered) +
               "c/" + std::to_string(r.split) + "s"});
  std::cout << t.render() << "\n";

  const bool off_ok = optimizer_off_identical(scenarios.front());
  std::cout << "\n";

  write_file("bench_results/dag_optimizer.csv", phases_csv(results));
  const std::string json =
      results_json(results, smoke, scenarios_ok, attribution_ok, off_ok)
          .dump_pretty() +
      "\n";
  write_file("bench_results/BENCH_optimizer.json", json);
  std::cout << "wrote bench_results/dag_optimizer.csv, "
               "bench_results/BENCH_optimizer.json";
  if (!smoke) {
    // Committed snapshot at the repo root; CI validates schema + gates.
    write_file("BENCH_optimizer.json", json);
    std::cout << " and ./BENCH_optimizer.json";
  }
  std::cout << "\n";

  if (!scenarios_ok || !attribution_ok || !off_ok) return 1;
  std::cout << "PASS: fusion, clustering and splitting gates hold\n";
  return 0;
}
