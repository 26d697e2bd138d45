// Discrete-event simulation kernel.
//
// Everything in this repository that "runs" — resource managers, pilots,
// cloud autoscaling, pipelines — executes as callbacks on one Simulation.
// Events at equal timestamps fire in scheduling order (FIFO tie-break), so a
// run is fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "support/units.hpp"

namespace hhc::sim {

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert. Copies share the same cancellation state.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel() noexcept {
    if (cancelled_) *cancelled_ = true;
  }

  bool valid() const noexcept { return static_cast<bool>(cancelled_); }
  bool cancelled() const noexcept { return cancelled_ && *cancelled_; }

 private:
  friend class Simulation;
  explicit EventHandle(std::shared_ptr<bool> flag) : cancelled_(std::move(flag)) {}
  std::shared_ptr<bool> cancelled_;
};

/// The event loop. Not thread-safe: one Simulation per thread/replica.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after a delay `dt` (must be >= 0).
  EventHandle schedule_in(SimTime dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Schedules `fn` at the current time, after already-queued same-time events.
  EventHandle post(std::function<void()> fn) { return schedule_at(now_, std::move(fn)); }

  /// Schedules a *weak* event: it fires like a normal event while regular
  /// work is pending, but never keeps the simulation alive by itself — once
  /// only weak events remain, run()/run_until() discard them and drain.
  /// For observers (periodic samplers) that must not extend a run.
  EventHandle schedule_weak_at(SimTime t, std::function<void()> fn);
  EventHandle schedule_weak_in(SimTime dt, std::function<void()> fn) {
    return schedule_weak_at(now_ + dt, std::move(fn));
  }

  /// Runs until the queue is empty or `max_events` fire. Returns events fired.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs until simulated time would pass `t_end` (events at exactly t_end
  /// fire). The clock is left at min(t_end, last event time).
  std::size_t run_until(SimTime t_end);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  std::size_t pending_events() const noexcept { return live_events_; }
  std::size_t fired_events() const noexcept { return fired_; }
  /// Events ever scheduled on this simulation (fired or not).
  std::size_t scheduled_events() const noexcept {
    return static_cast<std::size_t>(next_seq_);
  }

  // Kernel health counters for the observability layer (obs::Observer).
  /// Events that were cancelled before firing (observed at pop time).
  std::size_t cancelled_events() const noexcept { return cancelled_; }
  /// Largest number of simultaneously queued live events ever reached.
  std::size_t queue_high_water() const noexcept { return queue_high_water_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
    bool weak = false;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  EventHandle schedule_impl(SimTime t, std::function<void()> fn, bool weak);
  /// The one event loop behind run()/run_until(): fires up to `max_events`
  /// live events due at or before `bound`. With the profiler on, every
  /// kDispatchStride-th dispatch is timed under "sim.dispatch.sampled".
  std::size_t run_loop(std::size_t max_events, SimTime bound);
  /// Pops the next live event due at or before `bound`, discarding
  /// cancelled (and orphaned weak) heads on the way. False when none is due.
  bool pop_next(Event& out,
                SimTime bound = std::numeric_limits<SimTime>::infinity());

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t fired_ = 0;
  std::size_t live_events_ = 0;
  /// Queued strong (non-weak) events, counting cancelled ones until popped.
  /// When it hits zero, remaining weak events are discarded instead of fired.
  std::size_t strong_live_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t queue_high_water_ = 0;
  bool stop_requested_ = false;
};

/// While a Simulation is inside run()/run_until() on this thread, points at
/// its clock so lower layers (hhc::log_line) can stamp output with simulated
/// time without depending on the sim library. Null otherwise.
const SimTime* current_sim_time() noexcept;

}  // namespace hhc::sim
