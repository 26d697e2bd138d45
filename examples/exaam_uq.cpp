// ExaAM UQ pipeline on the EnTK ensemble manager (paper section 4),
// scaled to run in seconds: stage 0 (TASMANIAN grid), stage 1
// (AdditiveFOAM even/odd + ExaCA), stage 3 (ExaConstit ensemble), with a
// node failure injected mid-run to show the fault-tolerance path.
//
// Writes bench_results/traces/exaam_uq.trace.json, a Chrome trace-event
// file of the run's span hierarchy (app -> pipeline -> stage -> task) —
// open it in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
//   $ ./exaam_uq [pilot_nodes] [exaconstit_tasks]
//
// Both arguments must be positive integers; anything else prints the usage
// line and exits with status 2.
#include <charconv>
#include <cstring>
#include <iostream>
#include <optional>

#include "entk/app_manager.hpp"
#include "entk/exaam.hpp"
#include "obs/exporters.hpp"
#include "obs/observer.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace hhc;

namespace {

/// argv[i] as a positive integer, `fallback` when it is absent, nullopt when
/// it is not a whole positive number.
std::optional<std::size_t> positive_arg(int argc, char** argv, int i,
                                        std::size_t fallback) {
  if (argc <= i) return fallback;
  const char* first = argv[i];
  const char* last = first + std::strlen(first);
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || end != last || value == 0) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const auto nodes_arg = positive_arg(argc, argv, 1, 400);
  const auto tasks_arg = positive_arg(argc, argv, 2, 300);
  if (!nodes_arg || !tasks_arg) {
    std::cerr << "usage: " << argv[0]
              << " [pilot_nodes] [exaconstit_tasks]  (positive integers)\n";
    return 2;
  }
  const std::size_t pilot_nodes = *nodes_arg;
  entk::ExaamScale scale;
  scale.meltpool_cases = 20;
  scale.microstructure_cases = 60;
  scale.exaconstit_tasks = *tasks_arg;

  std::cout << "ExaAM UQ pipeline on a " << pilot_nodes
            << "-node Frontier-like pilot\n";
  std::cout << "  stage 1: " << scale.meltpool_cases << " AdditiveFOAM + "
            << scale.microstructure_cases << " ExaCA cases\n";
  std::cout << "  stage 3: " << scale.exaconstit_tasks << " ExaConstit tasks\n\n";

  sim::Simulation sim;
  cluster::Cluster pilot(cluster::frontier_like(pilot_nodes));
  entk::EntkConfig config;
  config.scheduling_rate = 269;
  config.launching_rate = 51;
  config.bootstrap_overhead = 85;
  config.sample_period = 30;  // pilot-occupancy time series
  entk::AppManager app(sim, pilot, config, Rng(2023));
  // Full UQ pipeline with the paper's two accepted last-step ExaConstit
  // failures (too-large final time step for their loading condition/RVE).
  entk::PipelineDesc pipeline;
  pipeline.name = "uq-full";
  for (auto part : {entk::make_stage0(scale), entk::make_stage1(scale),
                    entk::make_stage3(scale, /*terminal_failures=*/2)})
    for (auto& stage : part.stages) pipeline.stages.push_back(std::move(stage));
  app.add_pipeline(std::move(pipeline));

  // A hardware failure two simulated hours in: the tasks on that node fail
  // and are resubmitted automatically (paper section 4.3).
  app.fail_node_at(hours(2), pilot_nodes / 3);

  // Dynamic workflow (paper section 4: EnTK can "create new workflow stages
  // based on the status of previously executed stages"): if the ExaConstit
  // ensemble finishes with accepted failures, append a refinement stage that
  // reruns those cases with a smaller time step before the optimization.
  std::size_t refinements = 0;
  app.set_stage_hook([&](const entk::AppManager::StageStatus& status)
                         -> std::vector<entk::StageDesc> {
    if (status.stage_name != "exaconstit" || status.failed == 0) return {};
    entk::StageDesc refine;
    refine.name = "exaconstit-refined";
    for (std::size_t i = 0; i < status.failed; ++i) {
      entk::TaskDesc t;
      t.name = "exaconstit-refined-" + std::to_string(i);
      t.kind = "exaconstit";
      t.resources.nodes = 8;
      t.resources.cores_per_node = 56;
      t.resources.gpus_per_node = 8;
      t.runtime_min = minutes(20);  // smaller time step: longer run
      t.runtime_max = minutes(50);
      refine.tasks.push_back(std::move(t));
    }
    refinements = refine.tasks.size();
    return {refine};
  });

  const entk::RunReport report = app.run();

  std::cout << "tasks:          " << report.tasks_completed << "/"
            << report.tasks_total << " completed\n";
  std::cout << "failures:       " << report.task_failures << " ("
            << report.resubmissions << " resubmitted)\n";
  std::cout << "OVH:            " << fmt_duration(report.ovh) << "\n";
  std::cout << "TTX:            " << fmt_duration(report.ttx) << "\n";
  std::cout << "job runtime:    " << fmt_duration(report.job_runtime()) << "\n";
  std::cout << "core util:      " << fmt_pct(report.core_utilization) << "\n";
  std::cout << "gpu util:       " << fmt_pct(report.gpu_utilization) << "\n";
  std::cout << "peak tasks:     " << report.executing_series.max_value() << "\n";
  std::cout << "mean task time: " << fmt_duration(report.task_runtimes.mean())
            << "\n";
  if (refinements > 0)
    std::cout << "dynamic stage:  appended exaconstit-refined with "
              << refinements << " task(s) after accepted failures\n";

  // Observability dump: the run's full span hierarchy as a Perfetto-loadable
  // Chrome trace, plus the metric counters the numbers above came from.
  if (write_file("bench_results/traces/exaam_uq.trace.json",
                 obs::chrome_trace_json(app.observer().spans(), "exaam_uq")))
    std::cout << "\nwrote bench_results/traces/exaam_uq.trace.json ("
              << app.observer().spans().spans().size()
              << " spans) — open in https://ui.perfetto.dev\n";
  std::cout << "\n"
            << obs::metrics_table(app.observer().snapshot(),
                                  "Metrics registry")
                   .render();
  return 0;
}
