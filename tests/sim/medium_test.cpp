#include "sim/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/prng.hpp"

namespace mstc::sim {
namespace {

using geom::Vec2;
using mobility::Leg;
using mobility::Trace;

std::vector<Trace> line_of_nodes(double spacing, std::size_t count) {
  std::vector<Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    traces.push_back(Trace(
        {Leg{0.0, {spacing * static_cast<double>(i), 0.0}, {0, 0}}}, 100.0));
  }
  return traces;
}

TEST(Medium, ReceiversWithinRange) {
  const auto traces = line_of_nodes(10.0, 5);  // x = 0,10,20,30,40
  const Medium medium(traces, {});
  std::vector<NodeId> out;
  medium.receivers(0, 25.0, 0.0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2}));
  medium.receivers(2, 10.0, 0.0, out);  // inclusive boundary
  EXPECT_EQ(out, (std::vector<NodeId>{1, 3}));
}

TEST(Medium, SenderIsExcluded) {
  const auto traces = line_of_nodes(10.0, 3);
  const Medium medium(traces, {});
  std::vector<NodeId> out;
  medium.receivers(1, 1000.0, 0.0, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::find(out.begin(), out.end(), NodeId{1}) == out.end());
}

TEST(Medium, ReceiversTrackMotion) {
  // Node 1 moves away from node 0 at 5 m/s starting 10 m apart.
  std::vector<Trace> traces;
  traces.push_back(Trace({Leg{0.0, {0.0, 0.0}, {0.0, 0.0}}}, 100.0));
  traces.push_back(Trace({Leg{0.0, {10.0, 0.0}, {5.0, 0.0}}}, 100.0));
  const Medium medium(traces, {});
  std::vector<NodeId> out;
  medium.receivers(0, 20.0, 0.0, out);
  EXPECT_EQ(out.size(), 1u);
  medium.receivers(0, 20.0, 2.0, out);  // distance exactly 20: inclusive
  EXPECT_EQ(out.size(), 1u);
  medium.receivers(0, 20.0, 3.0, out);  // distance 25: out of range
  EXPECT_TRUE(out.empty());
}

TEST(Medium, DistanceAndPositionAgree) {
  const auto traces = line_of_nodes(7.0, 3);
  const Medium medium(traces, {});
  EXPECT_DOUBLE_EQ(medium.distance(0, 2, 0.0), 14.0);
  EXPECT_EQ(medium.position(1, 50.0), (Vec2{7.0, 0.0}));
}

TEST(Medium, LinksWithinMatchesPairwiseDistances) {
  const auto traces = line_of_nodes(10.0, 4);  // x = 0,10,20,30
  const Medium medium(traces, {});
  const auto links = medium.links_within(10.0, 0.0);
  // Exactly the consecutive pairs.
  ASSERT_EQ(links.size(), 3u);
  for (const auto& [u, v] : links) EXPECT_EQ(v, u + 1);
}

TEST(Medium, PositionsSnapshot) {
  const auto traces = line_of_nodes(5.0, 3);
  const Medium medium(traces, {});
  std::vector<Vec2> snapshot;
  medium.positions(0.0, snapshot);
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[2], (Vec2{10.0, 0.0}));
}

TEST(Medium, ConfigAccessors) {
  const auto traces = line_of_nodes(5.0, 2);
  const Medium medium(traces, {.propagation_delay = 1e-4});
  EXPECT_DOUBLE_EQ(medium.propagation_delay(), 1e-4);
  EXPECT_EQ(medium.node_count(), 2u);
}

/// Expects medium.position(node, t) to carry exactly the bits of
/// traces[node].position(t).
void expect_trace_bits(const Medium& medium, const std::vector<Trace>& traces,
                       NodeId node, double t) {
  const Vec2 got = medium.position(node, t);
  const Vec2 want = traces[node].position(t);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x),
            std::bit_cast<std::uint64_t>(want.x))
      << "node " << node << " t " << t;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.y),
            std::bit_cast<std::uint64_t>(want.y))
      << "node " << node << " t " << t;
}

TEST(Medium, LegRecordsMatchTracePositionBitForBit) {
  // The medium serves positions from a per-node record of the current leg
  // and falls back to the trace off it. Every query must give the trace's
  // own bits: times rising, falling and repeated, exact leg boundaries and
  // their neighbours, zero-length legs, t < 0, t at and past the duration,
  // NaN, and static single-leg traces.
  constexpr double kDuration = 20.0;
  std::vector<Trace> traces;
  // Zero-length legs at 2.5 (twice) and at the start, uneven velocities.
  traces.push_back(Trace(
      {
          Leg{0.0, {1.0, 2.0}, {0.3, -0.7}},
          Leg{0.0, {1.5, 2.5}, {0.1, 0.1}},
          Leg{2.5, {1.75, 2.75}, {-1.0 / 3.0, 0.2}},
          Leg{2.5, {1.8, 2.8}, {0.9, 0.0}},
          Leg{7.125, {5.5, 2.8}, {0.0, 1.1}},
          Leg{19.5, {5.5, 16.0}, {-0.4, -0.4}},
      },
      kDuration));
  // Static single-leg traces, one at the origin.
  traces.push_back(Trace({Leg{0.0, {3.0, 4.0}, {0.0, 0.0}}}, kDuration));
  traces.push_back(Trace({Leg{0.0, {0.0, 0.0}, {0.0, 0.0}}}, kDuration));
  // A moving single leg, and random multi-leg traces.
  traces.push_back(Trace({Leg{0.0, {0.0, 9.0}, {1.25, -0.5}}}, kDuration));
  util::Xoshiro256 rng(0x1E6);
  for (int k = 0; k < 4; ++k) {
    std::vector<Leg> legs;
    double t = 0.0;
    while (t < kDuration) {
      legs.push_back({t,
                      {rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)},
                      {rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)}});
      t += rng.uniform_below(4) == 0 ? 0.0 : rng.uniform(0.1, 3.0);
    }
    traces.push_back(Trace(std::move(legs), kDuration));
  }

  // Every leg boundary, its floating-point neighbours and the ends.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> boundaries{-1.0, -0.0, 0.0, kDuration, kDuration + 1.0};
  for (const Trace& trace : traces) {
    for (const Leg& leg : trace.legs()) {
      boundaries.push_back(leg.start_time);
      boundaries.push_back(std::nextafter(leg.start_time, -kInf));
      boundaries.push_back(std::nextafter(leg.start_time, kInf));
    }
  }
  boundaries.push_back(std::nextafter(kDuration, 0.0));

  std::vector<double> times;
  for (double t = -0.5; t <= kDuration + 0.5; t += 0.0625) times.push_back(t);
  for (double t = kDuration + 0.5; t >= -0.5; t -= 0.375) times.push_back(t);
  for (const double t : boundaries) {
    times.push_back(t);
    times.push_back(t);  // repeated
  }
  std::vector<double> sorted = boundaries;
  std::sort(sorted.begin(), sorted.end());
  times.insert(times.end(), sorted.begin(), sorted.end());
  times.insert(times.end(), sorted.rbegin(), sorted.rend());
  for (int k = 0; k < 400; ++k) times.push_back(rng.uniform(-2.0, 22.0));
  times.push_back(std::numeric_limits<double>::quiet_NaN());
  times.push_back(3.0);

  const Medium medium(traces, {});
  for (const double t : times) {
    for (NodeId node = 0; node < traces.size(); ++node) {
      expect_trace_bits(medium, traces, node, t);
    }
    if (HasFailure()) return;
  }
  // positions() reads the same records.
  std::vector<Vec2> snapshot;
  for (const double t : sorted) {
    medium.positions(t, snapshot);
    for (NodeId node = 0; node < traces.size(); ++node) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(snapshot[node].x),
                std::bit_cast<std::uint64_t>(traces[node].position(t).x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(snapshot[node].y),
                std::bit_cast<std::uint64_t>(traces[node].position(t).y));
    }
  }
}

}  // namespace
}  // namespace mstc::sim
