// Run checkpoints: serializable snapshots of in-flight workflow state.
//
// The resilience plane (retry/hedge/lineage) survives faults *inside* a run,
// but the controller itself was a single point of failure: kill the Toolkit
// mid-campaign and every completed task re-executes from zero. A
// RunCheckpoint captures exactly the state an uninterrupted run would have
// accumulated by `taken_at` — the completed task set, where each winner ran,
// per-task retry budgets already spent (including backoff RNG positions, so
// a resumed task continues the *same* decorrelated-jitter sequence), and the
// producer-side replicas published into the data catalog — so a Toolkit
// run given it as `RunOptions::resume_from` re-executes only the surviving
// frontier.
//
// What is checkpointed vs recomputed (DESIGN.md §15):
//   * journaled  — completed set, winner placement, retry draws, pinned
//                  producer replicas, ledger high-water mark, busy core-s;
//   * recomputed — everything volatile: queue state, in-flight attempts,
//                  consumer-side cache replicas (a resumed consumer pays the
//                  same transfer an uninterrupted run would — deliberately,
//                  so cross_env_cache_hits never double-counts).
//
// Consistency invariant: the completed set is closed under predecessors
// (validate_for enforces it), which is what makes "dispatch every task whose
// predecessors are all completed" a correct frontier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/units.hpp"
#include "workflow/workflow.hpp"

namespace hhc::resilience {

/// When the Toolkit snapshots a run. Disabled by default: checkpointing is
/// strictly opt-in, and a run with it off is byte-identical to pre-durability
/// behaviour.
struct CheckpointPolicy {
  enum class Trigger {
    Disabled,           ///< Never checkpoint.
    Interval,           ///< Every `interval` simulated seconds (weak timer).
    EveryNCompletions,  ///< After every `every_n` winning completions.
    FrontierStability   ///< `stability_window` s with no new completion.
  };

  Trigger trigger = Trigger::Disabled;
  SimTime interval = 300.0;        ///< Interval trigger period.
  std::size_t every_n = 16;        ///< EveryNCompletions threshold.
  SimTime stability_window = 30.0; ///< FrontierStability quiet window.

  bool enabled() const noexcept { return trigger != Trigger::Disabled; }

  static CheckpointPolicy interval_every(SimTime seconds) {
    CheckpointPolicy p;
    p.trigger = Trigger::Interval;
    p.interval = seconds;
    return p;
  }
  static CheckpointPolicy every_completions(std::size_t n) {
    CheckpointPolicy p;
    p.trigger = Trigger::EveryNCompletions;
    p.every_n = n;
    return p;
  }
  static CheckpointPolicy frontier_stability(SimTime window) {
    CheckpointPolicy p;
    p.trigger = Trigger::FrontierStability;
    p.stability_window = window;
    return p;
  }
};

/// Placement sentinel for tasks that have not completed.
inline constexpr std::size_t kNoEnvironment = static_cast<std::size_t>(-1);

/// One producer-side replica pinned in the catalog at checkpoint time.
/// Stored as (producer task, bytes, location) — DatasetIds embed the per-run
/// workflow id, so resume re-derives ids under the *new* run's id.
struct ReplicaRecord {
  wf::TaskId producer = wf::kInvalidTask;
  Bytes bytes = 0;
  std::string location;
};

/// Snapshot of one run, sufficient to resume with only the surviving
/// frontier re-executing. Plain copyable data; serializes to Json with a
/// deterministic field order (object keys are sorted), so equal checkpoints
/// dump byte-identically.
struct RunCheckpoint {
  std::string workflow;        ///< Workflow name (diagnostic, not validated).
  std::size_t task_count = 0;
  SimTime taken_at = 0.0;      ///< Simulated time of the snapshot.
  std::uint64_t sequence = 0;  ///< 1-based checkpoint index within the run.

  // Dense per-task vectors, all sized task_count.
  std::vector<std::uint8_t> completed;      ///< 1 = winner settled.
  std::vector<std::size_t> placement;       ///< Winner env; kNoEnvironment.
  std::vector<std::uint32_t> retries;       ///< Retry budget already spent.
  std::vector<std::uint64_t> backoff_draws; ///< RetryPolicy draws issued.
  std::vector<SimTime> backoff_prev;        ///< Last decorrelated delay.

  std::vector<ReplicaRecord> replicas;      ///< Producer-pinned catalog state.

  std::uint64_t ledger_high_water = 0;  ///< Forensics attempts recorded so far.
  double busy_core_seconds = 0.0;       ///< Useful work already banked.

  std::size_t completed_count() const noexcept;
  bool complete() const noexcept {
    return task_count > 0 && completed_count() == task_count;
  }

  /// Throws std::invalid_argument when the checkpoint cannot seed `w`:
  /// task-count mismatch, malformed vector sizes, or a completed set that is
  /// not closed under predecessors.
  void validate_for(const wf::Workflow& w) const;

  /// Sparse, schema-tagged serialization ("hhc.run_checkpoint.v1").
  Json to_json() const;
  static RunCheckpoint from_json(const Json& j);
};

bool operator==(const ReplicaRecord& a, const ReplicaRecord& b);
bool operator==(const RunCheckpoint& a, const RunCheckpoint& b);
inline bool operator!=(const RunCheckpoint& a, const RunCheckpoint& b) {
  return !(a == b);
}

}  // namespace hhc::resilience
