// The benchmark's workloads. Each one is driven only through the layers'
// public API (service::WorkflowService, core::Toolkit, federation::Broker,
// entk::AppManager, resilience::ChaosEngine, obs::Observer). One repetition
// ("rep") is the workload's unit of work: the seven-point E18 sweep, one
// Stage-3 EnTK run, or one durable chaos campaign. Reps are numbered; rep r
// of workload seed s always runs the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

/// Instruments of the traced run. Null in the untraced run, which installs
/// no wrapper and leaves the profiler off.
struct Probe {
  SpanRecorder spans{1u << 16};
  /// Host ns of each `service.completed` record, cleared per service run.
  std::vector<std::int64_t> completions;
  /// Host microseconds between consecutive completions of one service run.
  std::vector<double> completion_gaps_us;
};

/// Machine-independent counts of one rep: the same seed and rep give the
/// same values on every run and every host.
struct RepCounts {
  double attempts = 0;            ///< Simulated task attempts, terminal.
  double completed_attempts = 0;  ///< Attempts that completed their task.
  double events = 0;              ///< Kernel events fired.
  double queue_high_water = 0;    ///< Max kernel queue length in the rep.
  double reroutes = 0;
  double transfers = 0;           ///< fabric.transfers
  double cache_hits = 0;
  double cache_misses = 0;
  double hedges = 0;
  double faults = 0;
  double journal_bytes = 0;
  double checkpoints = 0;
  double resubmissions = 0;       ///< EnTK resubmissions.
  /// Submissions (EnTK: tasks) attempted and not completed, per service run
  /// (EnTK: per application run).
  CampaignTally tally;
  /// Host microseconds of resource-manager scheduling passes (the program's
  /// rm.sched_pass_us histogram). Host time, so not compared for equality.
  double sched_pass_us = 0;

  /// Every field except the host-time one, for the inertness comparison.
  std::vector<double> exact() const;
};

struct RepResult {
  RepCounts counts;
  std::uint64_t digest = 0;  ///< Of the canonical schedule (E20 shape).
  std::vector<std::string> violations;  ///< Broken invariants; empty = OK.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs every rep shares (harness shape, calibration).
  virtual void setup(std::uint64_t seed) = 0;
  virtual RepResult run_rep(std::size_t rep, Probe* probe) = 0;
};

/// "e18_sweep", "stage3_entk" or "durable_chaos"; null for other names.
std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Seed of rep `rep` of workload seed `seed` (rep 0 uses the seed itself).
std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) noexcept;

}  // namespace perfbench
