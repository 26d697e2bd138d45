#include "cluster/schedulers.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhc::cluster {

void FifoScheduler::schedule(SchedulingContext& ctx) {
  // Place from the head; stop at the first job that cannot start.
  while (!ctx.queue().empty()) {
    if (!ctx.try_place(ctx.queue().front())) return;
  }
}

void FifoFitScheduler::schedule(SchedulingContext& ctx) {
  // Placing keeps queue entries where they are, so walk the queue by index;
  // jobs a start callback submits land past `n` and wait for the next pass.
  const std::vector<JobId>& queue = ctx.queue();
  const std::size_t n = queue.size();
  for (std::size_t i = 0; i < n; ++i) ctx.try_place(queue[i]);
}

void BackfillScheduler::schedule(SchedulingContext& ctx) {
  // Greedily place the head of the queue.
  while (!ctx.queue().empty() && ctx.try_place(ctx.queue().front())) {
  }
  if (ctx.queue().empty()) return;

  // Shadow time: earliest time the head job could plausibly start, assuming
  // running jobs free their nodes at their expected finish. We approximate
  // node feasibility by counting freed nodes (exact per-node tracking is not
  // needed for the policy-relative comparisons this model serves).
  const JobRecord& head = ctx.job(ctx.queue().front());
  const int needed = head.request.resources.nodes;

  std::vector<std::pair<SimTime, int>> frees;  // (expected finish, nodes freed)
  for (JobId id : ctx.running()) {
    const JobRecord& r = ctx.job(id);
    frees.emplace_back(r.expected_finish, r.request.resources.nodes);
  }
  std::sort(frees.begin(), frees.end());

  // Count currently idle-capable nodes as already free.
  int free_now = 0;
  const Cluster& cl = ctx.cluster();
  for (NodeId n = 0; n < cl.node_count(); ++n)
    if (cl.fits(n, head.request.resources)) ++free_now;

  SimTime shadow = ctx.now();
  int freed = free_now;
  for (const auto& [t, n] : frees) {
    if (freed >= needed) break;
    freed += n;
    shadow = t;
  }

  // Backfill: any queued job whose estimate ends before the shadow time may
  // start now. Jobs without estimates are treated conservatively (skip).
  const std::vector<JobId>& queue = ctx.queue();
  const std::size_t n = queue.size();
  for (std::size_t i = 1; i < n; ++i) {
    const JobRecord& r = ctx.job(queue[i]);
    const SimTime est = r.request.walltime_estimate;
    if (est <= 0.0) continue;
    if (ctx.now() + est <= shadow) ctx.try_place(queue[i]);
  }
}

std::unique_ptr<Scheduler> make_baseline_scheduler(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "fifo-fit") return std::make_unique<FifoFitScheduler>();
  if (name == "easy-backfill") return std::make_unique<BackfillScheduler>();
  throw std::invalid_argument("unknown scheduler: " + name);
}

}  // namespace hhc::cluster
