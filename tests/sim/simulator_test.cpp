#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace mstc::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  const Simulator simulator;
  EXPECT_DOUBLE_EQ(simulator.now(), 0.0);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(3.0, [&] { order.push_back(3); });
  simulator.schedule_at(1.0, [&] { order.push_back(1); });
  simulator.schedule_at(2.0, [&] { order.push_back(2); });
  simulator.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.processed_events(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  // Two instants scheduled interleaved, 500 events each: the earlier
  // instant fires first, and each instant fires in schedule order.
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    simulator.schedule_at(i % 2 == 0 ? 5.0 : 6.0,
                          [&order, i] { order.push_back(i); });
  }
  simulator.run_all();
  std::vector<int> expected;
  for (int i = 0; i < 1000; i += 2) expected.push_back(i);
  for (int i = 1; i < 1000; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Simulator, CurrentSequenceTracksExecutingEvent) {
  Simulator simulator;
  std::vector<std::uint64_t> sequences;
  // Three simultaneous events: sequence is the schedule-call order, and
  // current_sequence() must expose exactly the executing event's number.
  for (int i = 0; i < 3; ++i) {
    simulator.schedule_at(1.0, [&] {
      sequences.push_back(simulator.current_sequence());
    });
  }
  simulator.schedule_at(2.0, [&] {
    sequences.push_back(simulator.current_sequence());
  });
  simulator.run_all();
  ASSERT_EQ(sequences.size(), 4u);
  EXPECT_EQ(sequences, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  // After the run, the accessor keeps the last executed sequence.
  EXPECT_EQ(simulator.current_sequence(), 3u);
}

TEST(Simulator, CurrentSequenceOrdersNestedSchedules) {
  Simulator simulator;
  std::vector<std::uint64_t> order;
  simulator.schedule_at(1.0, [&] {
    order.push_back(simulator.current_sequence());
    // Scheduled mid-run at an already-passed tie time: still FIFO after
    // every previously scheduled t=1 event.
    simulator.schedule_at(1.0, [&] {
      order.push_back(simulator.current_sequence());
    });
  });
  simulator.schedule_at(1.0, [&] {
    order.push_back(simulator.current_sequence());
  });
  simulator.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_LT(order[0], order[1]);
  EXPECT_LT(order[1], order[2]);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator simulator;
  double observed = -1.0;
  simulator.schedule_at(2.5, [&] { observed = simulator.now(); });
  simulator.run_all();
  EXPECT_DOUBLE_EQ(observed, 2.5);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(1.0, [&] { ++fired; });
  simulator.schedule_at(2.0, [&] { ++fired; });
  simulator.schedule_at(3.0, [&] { ++fired; });
  simulator.run_until(2.0);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.0);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator simulator;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) simulator.schedule_in(1.0, tick);
  };
  simulator.schedule_at(0.0, tick);
  simulator.run_all();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 4.0);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.schedule_at(2.0, [&] {
    simulator.schedule_in(1.5, [&] { fired_at = simulator.now(); });
  });
  simulator.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator simulator;
  simulator.run_until(42.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 42.0);
}

TEST(Simulator, OversizedHandlersFallBackToHeapAndStillFire) {
  // Handler stores closures up to kInlineSize bytes inline; anything
  // larger takes the documented single-allocation fallback. The fallback
  // must behave identically — fire in order, survive the queue's moves,
  // destroy cleanly — it is only slower.
  struct Payload {
    std::array<double, 32> samples{};  // 256 bytes: well past kInlineSize
    std::vector<double>* sink = nullptr;
  };
  Simulator simulator;
  std::vector<double> fired;
  for (int i = 0; i < 8; ++i) {
    Payload payload;
    payload.samples[0] = static_cast<double>(i);
    payload.sink = &fired;
    auto handler = [payload] { payload.sink->push_back(payload.samples[0]); };
    static_assert(!Handler::fits_inline<decltype(handler)>);
    simulator.schedule_at(static_cast<double>(7 - i), std::move(handler));
  }
  simulator.run_all();
  EXPECT_EQ(fired, (std::vector<double>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(simulator.processed_events(), 8u);
}

TEST(Simulator, ReserveEventsPreservesBehavior) {
  // reserve_events is a capacity hint: scheduling under, at, and past the
  // reservation must fire exactly the same events in the same order as an
  // unreserved kernel. (The allocation win itself is pinned by
  // bench_kernel's allocs/event column, which a unit test cannot see.)
  Simulator reserved;
  Simulator plain;
  reserved.reserve_events(16);
  std::vector<int> from_reserved;
  std::vector<int> from_plain;
  for (int i = 0; i < 40; ++i) {  // 40 pending > the 16 reserved slots
    const double time = static_cast<double>((i * 7) % 11);
    reserved.schedule_at(time, [&from_reserved, i] {
      from_reserved.push_back(i);
    });
    plain.schedule_at(time, [&from_plain, i] { from_plain.push_back(i); });
  }
  reserved.run_all();
  plain.run_all();
  EXPECT_EQ(from_reserved, from_plain);
  EXPECT_EQ(reserved.processed_events(), 40u);
  EXPECT_EQ(reserved.pending_events(), 0u);
}

TEST(Simulator, StressRandomScheduleIsMonotone) {
  // Thousands of events scheduled in random order, some from inside
  // handlers (a zero delay lands at the current instant): observed firing
  // times must be nondecreasing and complete, and events sharing an
  // instant must fire in schedule order.
  Simulator simulator;
  std::uint64_t x = 12345;
  auto next_rand = [&x] {  // splitmix-style inline generator
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 27);
  };
  std::vector<double> observed;
  std::vector<std::uint64_t> sequences;
  int spawned = 0;
  std::function<void()> handler = [&] {
    observed.push_back(simulator.now());
    sequences.push_back(simulator.current_sequence());
    if (spawned < 2000) {
      ++spawned;
      const double delay =
          static_cast<double>(next_rand() % 1000) / 100.0;
      simulator.schedule_in(delay, handler);
    }
  };
  for (int i = 0; i < 500; ++i) {
    simulator.schedule_at(static_cast<double>(next_rand() % 10000) / 10.0,
                          handler);
  }
  simulator.run_all();
  EXPECT_EQ(observed.size(), 2500u);
  for (std::size_t i = 1; i < observed.size(); ++i) {
    ASSERT_LE(observed[i - 1], observed[i]) << "at event " << i;
    if (observed[i - 1] == observed[i]) {
      ASSERT_LT(sequences[i - 1], sequences[i]) << "at event " << i;
    }
  }
  EXPECT_EQ(simulator.processed_events(), 2500u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

}  // namespace
}  // namespace mstc::sim
