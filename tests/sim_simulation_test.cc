#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>

#include <vector>

namespace faasnap {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now().nanos(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, FiresEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime::FromNanos(300), [&] { order.push_back(3); });
  sim.Schedule(SimTime::FromNanos(100), [&] { order.push_back(1); });
  sim.Schedule(SimTime::FromNanos(200), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().nanos(), 300);
}

TEST(Simulation, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(SimTime::FromNanos(100), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  int64_t fired_at = -1;
  sim.Schedule(SimTime::FromNanos(100), [&] {
    sim.ScheduleAfter(Duration::Nanos(50), [&] { fired_at = sim.now().nanos(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulation, EventsCanScheduleChains) {
  Simulation sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) {
      sim.ScheduleAfter(Duration::Micros(1), tick);
    }
  };
  sim.ScheduleAfter(Duration::Micros(1), tick);
  sim.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), SimTime::FromNanos(10000));
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.Schedule(SimTime::FromNanos(100), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CancelUnknownIsNoOp) {
  Simulation sim;
  sim.Cancel(12345);
  bool fired = false;
  EventId id = sim.Schedule(SimTime::FromNanos(10), [&] { fired = true; });
  sim.Run();
  sim.Cancel(id);  // already fired
  EXPECT_TRUE(fired);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime::FromNanos(100), [&] { order.push_back(1); });
  sim.Schedule(SimTime::FromNanos(200), [&] { order.push_back(2); });
  sim.Schedule(SimTime::FromNanos(300), [&] { order.push_back(3); });
  EXPECT_EQ(sim.RunUntil(SimTime::FromNanos(250)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().nanos(), 250);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulation, RunUntilInclusiveOfDeadline) {
  Simulation sim;
  bool fired = false;
  sim.Schedule(SimTime::FromNanos(100), [&] { fired = true; });
  sim.RunUntil(SimTime::FromNanos(100));
  EXPECT_TRUE(fired);
}

TEST(Simulation, StepFiresExactlyOne) {
  Simulation sim;
  int count = 0;
  sim.Schedule(SimTime::FromNanos(1), [&] { ++count; });
  sim.Schedule(SimTime::FromNanos(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(Simulation, ProcessedEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(Duration::Nanos(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 7u);
}

TEST(SimulationFastForward, RefusedOutsideARunLoop) {
  Simulation sim;
  EXPECT_FALSE(sim.TryFastForward(SimTime::FromNanos(10)));
  EXPECT_EQ(sim.now().nanos(), 0);
  sim.Schedule(SimTime::FromNanos(5), [] {});
  sim.Run();
  EXPECT_FALSE(sim.TryFastForward(SimTime::FromNanos(10)));  // the loop has returned
  EXPECT_EQ(sim.now().nanos(), 5);
}

TEST(SimulationFastForward, RefusedInsideABareStep) {
  Simulation sim;
  std::vector<bool> accepted;
  const auto try_ff = [&] { accepted.push_back(sim.TryFastForward(sim.now() + Duration::Nanos(1))); };
  sim.Schedule(SimTime::FromNanos(10), try_ff);
  EXPECT_TRUE(sim.Step());
  // A Step() nested inside a run loop is bare too.
  sim.Schedule(SimTime::FromNanos(20), [&] {
    sim.Schedule(SimTime::FromNanos(30), try_ff);
    EXPECT_TRUE(sim.Step());
  });
  sim.Run();
  EXPECT_EQ(accepted, (std::vector<bool>{false, false}));
  EXPECT_EQ(sim.now().nanos(), 30);
}

TEST(SimulationFastForward, EqualToTheHeadLosesTheFifoTie) {
  Simulation sim;
  bool at_head = true;
  bool before_head = false;
  SimTime landed;
  sim.Schedule(SimTime::FromNanos(100), [&] {
    before_head = sim.TryFastForward(SimTime::FromNanos(199));
    at_head = sim.TryFastForward(SimTime::FromNanos(200));
    landed = sim.now();
  });
  sim.Schedule(SimTime::FromNanos(200), [] {});
  sim.Run();
  EXPECT_FALSE(at_head);
  EXPECT_TRUE(before_head);
  EXPECT_EQ(landed, SimTime::FromNanos(199));
}

TEST(SimulationFastForward, BoundedByTheRunUntilDeadline) {
  Simulation sim;
  bool past = true;
  bool at = false;
  sim.Schedule(SimTime::FromNanos(100), [&] {
    at = sim.TryFastForward(SimTime::FromNanos(500));
    past = sim.TryFastForward(SimTime::FromNanos(501));
  });
  sim.Schedule(SimTime::FromNanos(900), [] {});
  EXPECT_EQ(sim.RunUntil(SimTime::FromNanos(500)), 1u);
  EXPECT_FALSE(past);
  EXPECT_TRUE(at);
  EXPECT_EQ(sim.now().nanos(), 500);
}

TEST(SimulationFastForward, StrictlyBeforeTheHeadMovesTheClock) {
  Simulation sim;
  std::vector<int64_t> seen;
  sim.Schedule(SimTime::FromNanos(10), [&] {
    EXPECT_TRUE(sim.TryFastForward(SimTime::FromNanos(40)));
    seen.push_back(sim.now().nanos());
    EXPECT_TRUE(sim.TryFastForward(SimTime::FromNanos(40)));  // zero-length
    sim.ScheduleAfter(Duration::Zero(), [&] { seen.push_back(sim.now().nanos()); });
  });
  sim.Schedule(SimTime::FromNanos(50), [&] { seen.push_back(sim.now().nanos()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int64_t>{40, 40, 50}));
  // An empty queue bounds nothing but the run loop itself.
  sim.Schedule(SimTime::FromNanos(60), [&] {
    EXPECT_TRUE(sim.TryFastForward(SimTime::FromNanos(1000000)));
  });
  sim.Run();
  EXPECT_EQ(sim.now().nanos(), 1000000);
}

TEST(SimulationFastForward, CancelledHeadCountsAsLive) {
  Simulation sim;
  bool past_cancelled = true;
  bool before_cancelled = false;
  const EventId cancelled = sim.Schedule(SimTime::FromNanos(200), [] {});
  sim.Schedule(SimTime::FromNanos(100), [&] {
    past_cancelled = sim.TryFastForward(SimTime::FromNanos(250));
    before_cancelled = sim.TryFastForward(SimTime::FromNanos(150));
  });
  sim.Cancel(cancelled);
  sim.Run();
  EXPECT_FALSE(past_cancelled);
  EXPECT_TRUE(before_cancelled);
}

TEST(SimulationFastForward, NotCountedAsProcessedEvents) {
  Simulation sim;
  sim.Schedule(SimTime::FromNanos(1), [&] {
    for (int64_t t = 2; t <= 10; ++t) {
      EXPECT_TRUE(sim.TryFastForward(SimTime::FromNanos(t)));
    }
  });
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(sim.processed_events(), 1u);
  EXPECT_EQ(sim.now().nanos(), 10);
}

// FastForwardBound() from inside an event: TryFastForward must refuse one
// nanosecond past it, leaving the clock alone, and accept the bound itself.
struct BoundProbe {
  SimTime bound;
  bool past_accepted = true;
  bool at_accepted = false;
};

BoundProbe ProbeBound(Simulation& sim) {
  BoundProbe probe;
  probe.bound = sim.FastForwardBound();
  const SimTime before = sim.now();
  probe.past_accepted = sim.TryFastForward(probe.bound + Duration::Nanos(1));
  EXPECT_EQ(sim.now(), before);
  probe.at_accepted = sim.TryFastForward(probe.bound);
  return probe;
}

TEST(SimulationFastForward, BoundIsTheLatestTimeTryFastForwardAccepts) {
  {
    SCOPED_TRACE("empty queue");
    Simulation sim;
    BoundProbe in_epoch;
    sim.Schedule(SimTime::FromNanos(100), [&] { in_epoch = ProbeBound(sim); });
    sim.RunUntil(SimTime::FromNanos(700));
    EXPECT_EQ(in_epoch.bound, SimTime::FromNanos(700));
    EXPECT_FALSE(in_epoch.past_accepted);
    EXPECT_TRUE(in_epoch.at_accepted);
    // Under Run() an empty queue bounds nothing: the bound is the end of time.
    SimTime unbounded;
    bool accepted = false;
    sim.Schedule(SimTime::FromNanos(800), [&] {
      unbounded = sim.FastForwardBound();
      accepted = sim.TryFastForward(unbounded);
    });
    sim.Run();
    EXPECT_EQ(unbounded, SimTime::FromNanos(INT64_MAX));
    EXPECT_TRUE(accepted);
  }
  {
    SCOPED_TRACE("live head");
    Simulation sim;
    BoundProbe probe;
    sim.Schedule(SimTime::FromNanos(100), [&] { probe = ProbeBound(sim); });
    sim.Schedule(SimTime::FromNanos(300), [] {});
    sim.Run();
    EXPECT_EQ(probe.bound, SimTime::FromNanos(299));
    EXPECT_FALSE(probe.past_accepted);
    EXPECT_TRUE(probe.at_accepted);
  }
  {
    SCOPED_TRACE("cancelled head");
    Simulation sim;
    BoundProbe probe;
    const EventId cancelled = sim.Schedule(SimTime::FromNanos(200), [] {});
    sim.Schedule(SimTime::FromNanos(100), [&] { probe = ProbeBound(sim); });
    sim.Schedule(SimTime::FromNanos(400), [] {});
    sim.Cancel(cancelled);
    sim.Run();
    EXPECT_EQ(probe.bound, SimTime::FromNanos(199));
    EXPECT_FALSE(probe.past_accepted);
    EXPECT_TRUE(probe.at_accepted);
  }
  {
    SCOPED_TRACE("RunUntil deadline before the head");
    Simulation sim;
    BoundProbe probe;
    sim.Schedule(SimTime::FromNanos(100), [&] { probe = ProbeBound(sim); });
    sim.Schedule(SimTime::FromNanos(900), [] {});
    sim.RunUntil(SimTime::FromNanos(500));
    EXPECT_EQ(probe.bound, SimTime::FromNanos(500));
    EXPECT_FALSE(probe.past_accepted);
    EXPECT_TRUE(probe.at_accepted);
  }
  {
    SCOPED_TRACE("outside a run loop");
    Simulation sim;
    EXPECT_LT(sim.FastForwardBound(), sim.now());
    EXPECT_FALSE(sim.TryFastForward(sim.FastForwardBound() + Duration::Nanos(1)));
    sim.Schedule(SimTime::FromNanos(50), [] {});
    sim.Run();
    EXPECT_LT(sim.FastForwardBound(), sim.now());
    EXPECT_FALSE(sim.TryFastForward(sim.FastForwardBound() + Duration::Nanos(1)));
    // A bare Step() is outside the rule too.
    SimTime in_step;
    sim.Schedule(SimTime::FromNanos(60), [&] { in_step = sim.FastForwardBound(); });
    EXPECT_TRUE(sim.Step());
    EXPECT_LT(in_step, SimTime::FromNanos(60));
    EXPECT_EQ(sim.now().nanos(), 60);
  }
}

TEST(SimulationDeathTest, SchedulingInThePastAborts) {
  Simulation sim;
  sim.Schedule(SimTime::FromNanos(100), [] {});
  sim.Run();
  EXPECT_DEATH(sim.Schedule(SimTime::FromNanos(50), [] {}), "FAASNAP_CHECK");
}

}  // namespace
}  // namespace faasnap
