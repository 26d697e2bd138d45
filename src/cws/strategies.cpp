#include "cws/strategies.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/observer.hpp"

namespace hhc::cws {

void CwsSchedulerBase::schedule(cluster::SchedulingContext& ctx) {
  // Stable sort by descending priority; ties keep submission order.
  const std::vector<cluster::JobId>& order = ctx.queue();
  std::vector<std::pair<double, cluster::JobId>> keyed;
  keyed.reserve(order.size());
  for (cluster::JobId id : order) keyed.emplace_back(priority(ctx, ctx.job(id)), id);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });

  const bool instrumented = obs_ && obs_->on();
  obs::LogHistogram* decision_us = nullptr;
  if (instrumented)
    decision_us = &obs_->metrics().histogram("cws.decision_us", name(),
                                             1e-2, 1e6, 4);
  for (const auto& [key, id] : keyed) {
    const auto wall0 = std::chrono::steady_clock::now();
    const cluster::JobRecord& job = ctx.job(id);
    auto filter = node_filter(ctx, job);
    bool placed = filter ? ctx.try_place_if(id, filter) : ctx.try_place(id);
    bool fell_back = false;
    if (!placed && filter && allow_fallback()) {
      placed = ctx.try_place(id);
      fell_back = placed;
    }
    if (placed) on_placed(ctx, job);
    if (instrumented) {
      decision_us->observe(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - wall0)
                               .count());
      obs_->count(ctx.now(), "cws.decisions", name());
      if (placed) obs_->count(ctx.now(), "cws.placements", name());
      if (fell_back) obs_->count(ctx.now(), "cws.fallback_placements", name());
    }
  }
}

std::function<bool(cluster::NodeId)> CwsSchedulerBase::node_filter(
    const cluster::SchedulingContext&, const cluster::JobRecord&) const {
  return {};
}

void CwsSchedulerBase::on_placed(const cluster::SchedulingContext&,
                                 const cluster::JobRecord&) {}

double RankScheduler::priority(const cluster::SchedulingContext&,
                               const cluster::JobRecord& job) const {
  const auto r = registry().rank(job.request.workflow_id, job.request.task_id);
  return r.value_or(0.0);
}

double FileSizeScheduler::priority(const cluster::SchedulingContext&,
                                   const cluster::JobRecord& job) const {
  const wf::Workflow* w = registry().find(job.request.workflow_id);
  if (w && job.request.task_id < w->task_count())
    return static_cast<double>(w->total_input_bytes(job.request.task_id));
  return static_cast<double>(job.request.input_bytes);
}

double HeftScheduler::priority(const cluster::SchedulingContext&,
                               const cluster::JobRecord& job) const {
  const auto r = registry().rank(job.request.workflow_id, job.request.task_id);
  return r.value_or(0.0);
}

std::function<bool(cluster::NodeId)> HeftScheduler::node_filter(
    const cluster::SchedulingContext& ctx, const cluster::JobRecord& job) const {
  // Pick the node class minimizing predicted finish time among classes where
  // the job currently fits; restrict placement to that class.
  const cluster::Cluster& cl = ctx.cluster();
  const auto& classes = cl.spec().classes;

  const auto predicted = predictor_->predict(job.request);
  const double runtime = predicted.value_or(
      job.request.walltime_estimate > 0 ? job.request.walltime_estimate : 60.0);

  double best_eft = std::numeric_limits<double>::infinity();
  std::size_t best_class = classes.size();
  // Track per-class availability by checking any node of the class fits.
  for (cluster::NodeId n = 0; n < cl.node_count(); ++n) {
    const std::size_t ci = cl.node(n).class_index;
    if (!cl.fits(n, job.request.resources)) continue;
    const auto& c = classes[ci];
    const double io = static_cast<double>(job.request.input_bytes +
                                          job.request.output_bytes) /
                      std::min(c.io_bandwidth, cl.spec().shared_fs_bandwidth);
    const double eft = runtime / c.cpu_speed + io;
    if (eft < best_eft) {
      best_eft = eft;
      best_class = ci;
    }
  }
  if (best_class == classes.size()) return {};  // nothing fits; fall through
  return [&cl, best_class](cluster::NodeId n) {
    return cl.node(n).class_index == best_class;
  };
}

double TaremaScheduler::priority(const cluster::SchedulingContext&,
                                 const cluster::JobRecord& job) const {
  const auto r = registry().rank(job.request.workflow_id, job.request.task_id);
  return r.value_or(0.0);
}

std::function<bool(cluster::NodeId)> TaremaScheduler::node_filter(
    const cluster::SchedulingContext& ctx, const cluster::JobRecord& job) const {
  // Label task kinds by mean normalized runtime tertile across provenance;
  // label node classes by speed tertile; match heavy -> fast.
  const auto kind_records = provenance_->by_kind(job.request.kind);
  if (kind_records.size() < 2) return {};  // cold start: no labelling yet

  // Mean normalized runtime of this kind.
  double kind_mean = 0;
  for (const auto* r : kind_records) kind_mean += r->normalized_runtime();
  kind_mean /= static_cast<double>(kind_records.size());

  // Collect per-kind means across all kinds to find tertile boundaries.
  std::map<std::string, std::pair<double, std::size_t>> sums;
  for (const auto& r : provenance_->records()) {
    if (r.failed) continue;
    auto& [sum, n] = sums[r.kind];
    sum += r.normalized_runtime();
    ++n;
  }
  std::vector<double> means;
  for (const auto& [k, sn] : sums)
    if (sn.second > 0) means.push_back(sn.first / static_cast<double>(sn.second));
  if (means.size() < 2) return {};
  std::sort(means.begin(), means.end());
  // Group by rank position among all kind means: bottom third -> slow
  // nodes, middle -> medium, top third -> fast.
  const auto rank_pos = static_cast<std::size_t>(
      std::lower_bound(means.begin(), means.end(), kind_mean) - means.begin());
  const int task_group =
      static_cast<int>(std::min<std::size_t>(2, rank_pos * 3 / means.size()));

  // Node classes sorted by speed -> groups 0 (slow) .. 2 (fast).
  const cluster::Cluster& cl = ctx.cluster();
  const auto& classes = cl.spec().classes;
  std::vector<std::size_t> class_order(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) class_order[i] = i;
  std::sort(class_order.begin(), class_order.end(), [&](std::size_t a, std::size_t b) {
    return classes[a].cpu_speed < classes[b].cpu_speed;
  });
  // Map class index -> group in [0, 2].
  std::vector<int> class_group(classes.size(), 1);
  for (std::size_t pos = 0; pos < class_order.size(); ++pos) {
    const int g = class_order.size() == 1
                      ? 1
                      : static_cast<int>(pos * 3 / class_order.size());
    class_group[class_order[pos]] = g;
  }

  // Soft matching: the heaviest kinds are pinned to the fast group; the
  // lightest kinds are kept *off* the fast group (protecting it for heavy
  // work); the middle tertile places anywhere. Hard per-group pinning
  // punishes serial workflows whose whole chain is "light".
  if (task_group == 2) {
    return [&cl, class_group](cluster::NodeId n) {
      return class_group[cl.node(n).class_index] == 2;
    };
  }
  if (task_group == 0) {
    return [&cl, class_group](cluster::NodeId n) {
      return class_group[cl.node(n).class_index] != 2;
    };
  }
  return {};
}

fabric::DatasetId edge_dataset_id(int workflow_id, wf::TaskId producer,
                                  Bytes bytes) {
  return fabric::content_hash(
      "wf" + std::to_string(workflow_id) + "/t" + std::to_string(producer), bytes);
}

std::string DataLocalityScheduler::node_location(cluster::NodeId n) {
  return "node" + std::to_string(n);
}

double DataLocalityScheduler::priority(const cluster::SchedulingContext&,
                                       const cluster::JobRecord& job) const {
  // Data-heavy tasks first (same key as FileSize): they pin the most bytes
  // and release the most locality for their successors.
  const wf::Workflow* w = registry().find(job.request.workflow_id);
  if (w && job.request.task_id < w->task_count())
    return static_cast<double>(w->total_input_bytes(job.request.task_id));
  return static_cast<double>(job.request.input_bytes);
}

Bytes DataLocalityScheduler::resident_input_bytes(const cluster::JobRecord& job,
                                                  cluster::NodeId n) const {
  const wf::Workflow* w = registry().find(job.request.workflow_id);
  if (!w || job.request.task_id >= w->task_count()) return 0;
  const std::string loc = node_location(n);
  Bytes resident = 0;
  for (wf::TaskId pred : w->predecessors(job.request.task_id)) {
    const Bytes bytes = w->edge_bytes(pred, job.request.task_id);
    if (bytes == 0) continue;
    const auto id = edge_dataset_id(job.request.workflow_id, pred, bytes);
    if (catalog_.has_replica(id, loc)) resident += bytes;
  }
  return resident;
}

std::function<bool(cluster::NodeId)> DataLocalityScheduler::node_filter(
    const cluster::SchedulingContext& ctx, const cluster::JobRecord& job) const {
  // Steer to the node(s) holding the most of this task's input bytes. With
  // nothing resident anywhere (cold start) there is no signal: accept all.
  const cluster::Cluster& cl = ctx.cluster();
  Bytes best = 0;
  std::vector<Bytes> per_node(cl.node_count(), 0);
  for (cluster::NodeId n = 0; n < cl.node_count(); ++n) {
    per_node[n] = resident_input_bytes(job, n);
    best = std::max(best, per_node[n]);
  }
  if (best == 0) return {};
  return [per_node = std::move(per_node), best](cluster::NodeId n) {
    return per_node[n] == best;
  };
}

void DataLocalityScheduler::on_placed(const cluster::SchedulingContext&,
                                      const cluster::JobRecord& job) {
  const wf::Workflow* w = registry().find(job.request.workflow_id);
  if (!w || job.request.task_id >= w->task_count()) return;
  if (job.allocation.claims.empty()) return;
  const std::string loc = node_location(job.allocation.claims[0].node);
  // The task reads its inputs here and will write its outputs here: both
  // become replicas at the chosen node, so the next scheduling pass sees
  // siblings' shared inputs and this task's consumers as local.
  const wf::TaskId t = job.request.task_id;
  for (wf::TaskId pred : w->predecessors(t)) {
    const Bytes bytes = w->edge_bytes(pred, t);
    if (bytes == 0) continue;
    const auto id = edge_dataset_id(job.request.workflow_id, pred, bytes);
    catalog_.register_dataset(id, bytes);
    catalog_.add_replica(id, loc);
  }
  for (wf::TaskId succ : w->successors(t)) {
    const Bytes bytes = w->edge_bytes(t, succ);
    if (bytes == 0) continue;
    const auto id = edge_dataset_id(job.request.workflow_id, t, bytes);
    catalog_.register_dataset(id, bytes);
    catalog_.add_replica(id, loc);
  }
}

std::unique_ptr<cluster::Scheduler> make_strategy(const std::string& name,
                                                  const WorkflowRegistry& registry,
                                                  const RuntimePredictor& predictor,
                                                  const ProvenanceStore& provenance) {
  if (name == "fifo" || name == "fifo-fit" || name == "easy-backfill")
    return cluster::make_baseline_scheduler(name);
  if (name == "cws-rank") return std::make_unique<RankScheduler>(registry);
  if (name == "cws-filesize") return std::make_unique<FileSizeScheduler>(registry);
  if (name == "cws-heft") return std::make_unique<HeftScheduler>(registry, predictor);
  if (name == "cws-tarema")
    return std::make_unique<TaremaScheduler>(registry, provenance);
  if (name == "cws-datalocality")
    return std::make_unique<DataLocalityScheduler>(registry);
  throw std::invalid_argument("unknown strategy: " + name);
}

}  // namespace hhc::cws
