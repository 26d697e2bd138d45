#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hhc::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(1, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulation, SameTimeFifoTieBreak) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleInUsesNow) {
  Simulation sim;
  double fired_at = -1;
  sim.schedule_at(3, [&] {
    sim.schedule_in(4, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 7.0);
}

TEST(Simulation, PostFiresAtCurrentTimeAfterQueued) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1, [&] {
    sim.post([&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.schedule_at(1, [&] { order.push_back(3); });
  sim.run();
  // The posted event fires after the other same-time event already queued.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(Simulation, PastSchedulingThrows) {
  Simulation sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1, [&] { fired = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(h.cancelled());
}

TEST(Simulation, CancelIsIdempotentAndLate) {
  Simulation sim;
  int count = 0;
  EventHandle h = sim.schedule_at(1, [&] { ++count; });
  sim.run();
  h.cancel();  // after firing: harmless
  h.cancel();
  EXPECT_EQ(count, 1);
}

TEST(Simulation, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.cancelled());
  h.cancel();  // no crash
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  const std::size_t n = sim.run_until(2.5);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulation, RunUntilIncludesBoundaryEvents) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(5, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulation, RunUntilDoesNotFirePastEndBehindCancelledHead) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(5.0, [&] { fired = true; });
  h.cancel();
  EXPECT_EQ(sim.run_until(3.0), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 5.0);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100.0);
}

TEST(Simulation, MaxEventsBounds) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++count; });
  sim.run(3);
  EXPECT_EQ(count, 3);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, StopRequestHaltsLoop) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    sim.schedule_at(i, [&] {
      ++count;
      if (count == 4) sim.stop();
    });
  sim.run();
  EXPECT_EQ(count, 4);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulation, CascadedEventsCount) {
  Simulation sim;
  std::function<void(int)> chain = [&](int depth) {
    if (depth > 0) sim.schedule_in(1, [&chain, depth] { chain(depth - 1); });
  };
  chain(100);
  EXPECT_EQ(sim.run(), 100u);
  EXPECT_EQ(sim.now(), 100.0);
  EXPECT_EQ(sim.fired_events(), 100u);
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  double last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

TEST(Simulation, WeakEventsFireAlongsideStrongWork) {
  Simulation sim;
  int weak_fired = 0;
  std::function<void()> retick = [&] {
    ++weak_fired;
    sim.schedule_weak_in(1.0, retick);
  };
  sim.schedule_weak_at(0.0, retick);
  sim.schedule_at(3.5, [] {});  // strong work until t=3.5
  sim.run();
  // Ticks at 0,1,2,3 fire (strong event still pending); the tick at 4 is
  // discarded, so the run drains instead of looping forever.
  EXPECT_EQ(weak_fired, 4);
  EXPECT_EQ(sim.now(), 3.5);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, WeakEventsAloneNeverRun) {
  Simulation sim;
  bool fired = false;
  sim.schedule_weak_at(1.0, [&] { fired = true; });
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 0.0);  // discarded events do not advance the clock
}

TEST(Simulation, WeakEventsDoNotOutliveCancelledStrongWork) {
  Simulation sim;
  int weak_fired = 0;
  std::function<void()> retick = [&] {
    ++weak_fired;
    sim.schedule_weak_in(1.0, retick);
  };
  sim.schedule_weak_at(0.0, retick);
  EventHandle h = sim.schedule_at(100.0, [] {});
  h.cancel();
  sim.run();
  // The cancelled strong event holds the queue open only until it is popped
  // at t=100; the weak ticks before it fire, then everything drains.
  EXPECT_LE(weak_fired, 101);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace hhc::sim
