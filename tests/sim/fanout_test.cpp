// Batched broadcast fan-out: one schedule_fanout call must present each
// delivery with exactly the (now, current_sequence, processed_events)
// triple an equivalent per-receiver schedule_at loop would have, and
// anything scheduled after the fan-out must order behind the whole span.
// Each delivery also sees the whole receiver span and its own index in it.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "sim/simulator.hpp"

namespace mstc::sim {
namespace {

struct DeliveryObservation {
  std::uint32_t node = 0;
  double now = 0.0;
  std::uint64_t sequence = 0;
  std::uint64_t processed = 0;

  bool operator==(const DeliveryObservation&) const = default;
};

std::vector<DeliveryObservation> observe_unbatched(
    const std::vector<std::uint32_t>& receivers) {
  Simulator simulator;
  std::vector<DeliveryObservation> log;
  simulator.schedule_at(1.0, [&] {
    for (std::uint32_t v : receivers) {
      simulator.schedule_at(2.0, [&, v] {
        log.push_back({v, simulator.now(), simulator.current_sequence(),
                       simulator.processed_events()});
      });
    }
  });
  simulator.run_all();
  return log;
}

std::vector<DeliveryObservation> observe_batched(
    const std::vector<std::uint32_t>& receivers) {
  Simulator simulator;
  std::vector<DeliveryObservation> log;
  simulator.schedule_at(1.0, [&] {
    simulator.schedule_fanout(
        2.0, receivers,
        [&](std::span<const std::uint32_t> targets, std::size_t i) {
          log.push_back({targets[i], simulator.now(),
                         simulator.current_sequence(),
                         simulator.processed_events()});
        });
  });
  simulator.run_all();
  return log;
}

TEST(Fanout, TimeAndSequenceMatchPerReceiverLoop) {
  const std::vector<std::uint32_t> receivers{2, 5, 7, 11};
  const auto batched = observe_batched(receivers);
  const auto unbatched = observe_unbatched(receivers);
  ASSERT_EQ(batched.size(), receivers.size());
  EXPECT_EQ(batched, unbatched);
}

TEST(Fanout, LaterScheduleDrawsSequenceAfterWholeSpan) {
  // A same-time event scheduled *after* the fan-out must run after every
  // delivery in both worlds: the fan-out pre-assigns its whole sequence
  // span at schedule time.
  for (const bool batch : {false, true}) {
    Simulator simulator;
    const std::vector<std::uint32_t> receivers{0, 1, 2};
    std::vector<std::uint64_t> order;
    simulator.schedule_at(1.0, [&] {
      if (batch) {
        simulator.schedule_fanout(
            2.0, receivers,
            [&](std::span<const std::uint32_t> targets, std::size_t i) {
              order.push_back(targets[i]);
            });
      } else {
        for (std::uint32_t v : receivers) {
          simulator.schedule_at(2.0, [&, v] { order.push_back(v); });
        }
      }
      simulator.schedule_at(2.0, [&] { order.push_back(100); });
    });
    simulator.run_all();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 100}))
        << "batch=" << batch;
  }
}

TEST(Fanout, EmptySpanSchedulesNothing) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule_at(1.0, [&] {
    simulator.schedule_fanout(
        2.0, {},
        [&](std::span<const std::uint32_t>, std::size_t) { ran = true; });
  });
  simulator.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(simulator.processed_events(), 1u);
}

TEST(Fanout, ProcessedEventsCountsEachDelivery) {
  // Every delivery counts as one processed event — the batching is a
  // storage optimization, not an accounting change.
  const std::vector<std::uint32_t> receivers{3, 4, 5, 6, 7};
  Simulator simulator;
  simulator.schedule_at(1.0, [&] {
    simulator.schedule_fanout(
        1.5, receivers, [](std::span<const std::uint32_t>, std::size_t) {});
  });
  simulator.run_all();
  EXPECT_EQ(simulator.processed_events(), 1u + receivers.size());
}

TEST(Fanout, EachDeliverySeesTheWholeSpanAndItsIndex) {
  // Delivery i gets the full ascending receiver list and i, so it can look
  // ahead (the Hello path prefetches the next receivers' state). The list
  // is the kernel's copy: the caller overwrites its buffer right after
  // scheduling.
  Simulator simulator;
  std::vector<std::uint32_t> receivers{4, 9, 10, 31, 32};
  const std::vector<std::uint32_t> expected = receivers;
  std::vector<std::vector<std::uint32_t>> seen_spans;
  std::vector<std::size_t> seen_indices;
  simulator.schedule_at(1.0, [&] {
    simulator.schedule_fanout(
        2.0, receivers,
        [&](std::span<const std::uint32_t> targets, std::size_t i) {
          seen_spans.emplace_back(targets.begin(), targets.end());
          seen_indices.push_back(i);
        });
    receivers.assign(receivers.size(), 0);
  });
  simulator.run_all();
  ASSERT_EQ(seen_spans.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(seen_spans[i], expected) << "delivery " << i;
    EXPECT_EQ(seen_indices[i], i);
  }
}

}  // namespace
}  // namespace mstc::sim
