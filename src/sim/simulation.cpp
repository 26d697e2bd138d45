#include "sim/simulation.hpp"

#include <stdexcept>

#include "obs/prof/prof.hpp"
#include "support/log.hpp"

namespace hhc::sim {

namespace {

#if HHC_PROFILING
namespace prof = hhc::obs::prof;

/// Folds the kernel's own exact tallies into the profiler at the end of a
/// run()/run_until(). Batch deltas keep the per-event cost at zero: the
/// kernel already counts scheduled/fired/cancelled/high-water, so profiling
/// them costs four atomic adds per run, not per event.
class ProfTallyScope {
 public:
  explicit ProfTallyScope(const Simulation& sim)
      : sim_(sim),
        on_(prof::enabled()),
        sched0_(sim.scheduled_events()),
        fired0_(sim.fired_events()),
        cancelled0_(sim.cancelled_events()) {}
  ~ProfTallyScope() {
    if (!on_) return;
    static const prof::RegionId sched = prof::intern("sim.events_scheduled");
    static const prof::RegionId fired = prof::intern("sim.events_fired");
    static const prof::RegionId canc = prof::intern("sim.events_cancelled");
    static const prof::RegionId peak = prof::intern("sim.queue_peak");
    prof::counter_add(sched, sim_.scheduled_events() - sched0_);
    prof::counter_add(fired, sim_.fired_events() - fired0_);
    prof::counter_add(canc, sim_.cancelled_events() - cancelled0_);
    prof::counter_max(peak, sim_.queue_high_water());
  }
  ProfTallyScope(const ProfTallyScope&) = delete;
  ProfTallyScope& operator=(const ProfTallyScope&) = delete;

  bool on() const noexcept { return on_; }

 private:
  const Simulation& sim_;
  bool on_;
  std::size_t sched0_, fired0_, cancelled0_;
};

/// Dispatch timing is sampled (one scope every kDispatchStride-th event):
/// exact per-event scopes would dwarf a ~100 ns dispatch, sampling keeps
/// the enabled overhead inside the E17 < 3% budget while still giving an
/// unbiased ns/event estimate at any realistic event count.
constexpr std::size_t kDispatchStride = 256;
#endif  // HHC_PROFILING
// RAII: publish the running simulation's clock to this thread's logger (the
// hook lives in support/log so support does not depend on sim). Nested
// run() calls restore the outer pointer on exit.
class CurrentSimScope {
 public:
  explicit CurrentSimScope(const SimTime* now) : prev_(detail::log_sim_time()) {
    detail::set_log_sim_time(now);
  }
  ~CurrentSimScope() { detail::set_log_sim_time(prev_); }
  CurrentSimScope(const CurrentSimScope&) = delete;
  CurrentSimScope& operator=(const CurrentSimScope&) = delete;

 private:
  const SimTime* prev_;
};
}  // namespace

const SimTime* current_sim_time() noexcept { return detail::log_sim_time(); }

EventHandle Simulation::schedule_impl(SimTime t, std::function<void()> fn,
                                      bool weak) {
  if (t < now_) throw std::logic_error("Simulation::schedule_at: time in the past");
  auto flag = std::make_shared<bool>(false);
  queue_.push(Event{t, next_seq_++, std::move(fn), flag, weak});
  ++live_events_;
  if (!weak) ++strong_live_;
  if (live_events_ > queue_high_water_) queue_high_water_ = live_events_;
  return EventHandle(std::move(flag));
}

EventHandle Simulation::schedule_at(SimTime t, std::function<void()> fn) {
  return schedule_impl(t, std::move(fn), /*weak=*/false);
}

EventHandle Simulation::schedule_weak_at(SimTime t, std::function<void()> fn) {
  return schedule_impl(t, std::move(fn), /*weak=*/true);
}

bool Simulation::pop_next(Event& out, SimTime bound) {
  while (!queue_.empty()) {
    if (queue_.top().time > bound) return false;
    // priority_queue::top is const; move is safe because we pop immediately.
    out = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    --live_events_;
    if (!out.weak) --strong_live_;
    if (*out.cancelled) {
      ++cancelled_;
      continue;
    }
    // A weak event with no strong work left would run the simulation for the
    // observer's sake alone; discard it (and everything after it — only weak
    // or cancelled events can remain).
    if (out.weak && strong_live_ == 0) continue;
    return true;
  }
  return false;
}

std::size_t Simulation::run(std::size_t max_events) {
  return run_loop(max_events, std::numeric_limits<SimTime>::infinity());
}

std::size_t Simulation::run_until(SimTime t_end) {
  const std::size_t n = run_loop(SIZE_MAX, t_end);
  if (now_ < t_end && (queue_.empty() || queue_.top().time > t_end)) now_ = t_end;
  return n;
}

std::size_t Simulation::run_loop(std::size_t max_events, SimTime bound) {
  CurrentSimScope scope(&now_);
  HHC_PROF_SCOPE("sim.run");
#if HHC_PROFILING
  const ProfTallyScope tally(*this);
  const bool sampled = tally.on();
  prof::RegionId rid = prof::kNoRegion;
  if (sampled) {
    static const prof::RegionId dispatch = prof::intern("sim.dispatch.sampled");
    rid = dispatch;
  }
#endif
  stop_requested_ = false;
  std::size_t n = 0;
  Event ev;
  while (n < max_events && !stop_requested_ && pop_next(ev, bound)) {
    now_ = ev.time;
#if HHC_PROFILING
    if (sampled && (fired_ & (kDispatchStride - 1)) == 0) {
      const prof::Scope s(rid);
      ev.fn();
    } else {
      ev.fn();
    }
#else
    ev.fn();
#endif
    ++fired_;
    ++n;
  }
  return n;
}

}  // namespace hhc::sim
