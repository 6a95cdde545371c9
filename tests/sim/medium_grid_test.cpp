// Differential suite for the medium's spatial index.
//
// The index is an optimization with a bit-identity contract: grid-backed
// receivers()/links_within() must equal the brute-force scans
// element-for-element (same sets, same ascending order) for every config,
// query time and radius — including the boundary cases that tend to break
// conservative filters (distance exactly == range, nodes at area corners,
// zero-speed fleets, times past the trace duration, out-of-order queries).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/probe.hpp"
#include "sim/medium.hpp"
#include "util/prng.hpp"

namespace mstc::sim {
namespace {

using geom::Vec2;
using mobility::Leg;
using mobility::Trace;

/// Random piecewise-linear trace: legs of 1-5 s with speed in
/// [0, max_speed], starting inside [0, extent]^2.
Trace random_trace(util::Xoshiro256& rng, double duration, double extent,
                   double max_speed) {
  std::vector<Leg> legs;
  Vec2 at{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
  double t = 0.0;
  while (t < duration) {
    const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const double speed = rng.uniform(0.0, max_speed);
    const Vec2 velocity{speed * std::cos(angle), speed * std::sin(angle)};
    const double leg = rng.uniform(1.0, 5.0);
    legs.push_back({t, at, velocity});
    at = at + velocity * leg;
    t += leg;
  }
  return Trace(std::move(legs), duration);
}

std::vector<Trace> random_fleet(util::Xoshiro256& rng, std::size_t count,
                                double duration, double extent,
                                double max_speed) {
  std::vector<Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    traces.push_back(random_trace(rng, duration, extent, max_speed));
  }
  return traces;
}

/// Asserts grid == brute for receivers (every node as sender) and
/// links_within at time t and radius r.
void expect_equal_queries(const Medium& grid, const Medium& brute, double r,
                          double t) {
  std::vector<NodeId> grid_out;
  std::vector<NodeId> brute_out;
  for (NodeId sender = 0; sender < grid.node_count(); ++sender) {
    grid.receivers(sender, r, t, grid_out);
    brute.receivers(sender, r, t, brute_out);
    ASSERT_EQ(grid_out, brute_out)
        << "receivers diverged: sender=" << sender << " r=" << r
        << " t=" << t;
    ASSERT_TRUE(std::is_sorted(grid_out.begin(), grid_out.end()));
  }
  ASSERT_EQ(grid.links_within(r, t), brute.links_within(r, t))
      << "links_within diverged: r=" << r << " t=" << t;
}

TEST(MediumGrid, RandomizedDifferentialAgainstBruteForce) {
  util::Xoshiro256 rng(0xD1FF);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 1 + rng.uniform_below(120);
    const double duration = rng.uniform(5.0, 40.0);
    const double extent = rng.uniform(100.0, 900.0);
    const double max_speed = trial % 4 == 0 ? 0.0 : rng.uniform(0.0, 40.0);
    const auto traces = random_fleet(rng, n, duration, extent, max_speed);
    const Medium grid(traces, {});
    const Medium brute(traces, {.brute_force = true});
    // Ascending times (the common case the cursor cache optimizes for),
    // then a few deliberately out-of-order and past-duration probes.
    for (double t = 0.0; t <= duration + 4.0; t += rng.uniform(0.3, 2.0)) {
      expect_equal_queries(grid, brute, rng.uniform(0.0, extent * 0.6), t);
    }
    expect_equal_queries(grid, brute, rng.uniform(10.0, extent), 0.0);
    expect_equal_queries(grid, brute, rng.uniform(10.0, extent),
                         duration * 0.5);
  }
}

TEST(MediumGrid, DistanceExactlyEqualToRangeIsInclusiveInBothPaths) {
  // Nodes on a 10 m line: boundaries land exactly on the range.
  std::vector<Trace> traces;
  for (int i = 0; i < 8; ++i) {
    traces.push_back(Trace({Leg{0.0, {10.0 * i, 0.0}, {0.0, 0.0}}}, 50.0));
  }
  const Medium grid(traces, {});
  const Medium brute(traces, {.brute_force = true});
  for (const double r : {10.0, 20.0, 30.0}) {
    expect_equal_queries(grid, brute, r, 0.0);
  }
  std::vector<NodeId> out;
  grid.receivers(3, 20.0, 0.0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2, 4, 5}));
}

TEST(MediumGrid, NodesAtAreaCornersMatch) {
  const double side = 900.0;
  std::vector<Trace> traces;
  for (const Vec2 p : {Vec2{0.0, 0.0}, Vec2{side, 0.0}, Vec2{0.0, side},
                       Vec2{side, side}, Vec2{side / 2, side / 2}}) {
    traces.push_back(Trace({Leg{0.0, p, {0.0, 0.0}}}, 10.0));
  }
  const Medium grid(traces, {});
  const Medium brute(traces, {.brute_force = true});
  // Exactly the diagonal, exactly the side, just below each.
  for (const double r : {side * std::sqrt(2.0), side,
                         std::nextafter(side, 0.0), side / 2}) {
    expect_equal_queries(grid, brute, r, 0.0);
  }
}

TEST(MediumGrid, ZeroSpeedFleetNeverRebuilds) {
  util::Xoshiro256 rng(7);
  const auto traces = random_fleet(rng, 60, 20.0, 500.0, 0.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(traces, {});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  // Static fleet: slack is always 0, so one build serves every time.
  for (const double t : {0.0, 5.0, 19.0, 2.0, 100.0}) {
    for (NodeId u = 0; u < medium.node_count(); ++u) {
      medium.receivers(u, 150.0, t, out);
    }
  }
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 1u);
  EXPECT_GT(observation.counters.total(obs::Counter::kMediumCandidates), 0u);
}

TEST(MediumGrid, MovingFleetRebuildsWhenSlackExceedsThreshold) {
  util::Xoshiro256 rng(8);
  const auto traces = random_fleet(rng, 50, 60.0, 400.0, 20.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(traces, {});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  for (double t = 0.0; t <= 60.0; t += 1.0) {
    for (NodeId u = 0; u < medium.node_count(); ++u) {
      medium.receivers(u, 150.0, t, out);
    }
  }
  // rebuild threshold: 2 * v_max * dt > 0.5 * 150 => dt ~ 1.9 s at
  // v_max >= 20, so a 60 s sweep must rebuild many times.
  EXPECT_GE(observation.counters.total(obs::Counter::kMediumGridRebuilds), 5u);

  // And the differential contract still holds across the whole horizon.
  const Medium brute(traces, {.brute_force = true});
  for (double t = 0.0; t <= 60.0; t += 7.5) {
    expect_equal_queries(medium, brute, 150.0, t);
  }
}

TEST(MediumGrid, TimePastTraceDurationClampsIdentically) {
  util::Xoshiro256 rng(9);
  const auto traces = random_fleet(rng, 40, 10.0, 300.0, 15.0);
  const Medium grid(traces, {});
  const Medium brute(traces, {.brute_force = true});
  // Positions clamp at duration; queries far past it must still agree
  // (and must not grow the conservative radius without bound).
  for (const double t : {10.0, 11.0, 50.0, 1000.0}) {
    expect_equal_queries(grid, brute, 120.0, t);
  }
}

TEST(MediumGrid, BruteForceConfigBypassesTheIndex) {
  util::Xoshiro256 rng(10);
  const auto traces = random_fleet(rng, 30, 10.0, 300.0, 10.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(traces, {.brute_force = true});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  medium.receivers(0, 100.0, 0.0, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 0u);
  // Brute force exact-checks everyone but the sender.
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumCandidates),
            medium.node_count() - 1);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumCandidatesAccepted),
            out.size());
}

TEST(MediumGrid, DefaultConfigIndexesSmallFleets) {
  // No fleet is too small for the index: a default 30-node medium builds
  // it on the first query and still answers exactly as the brute scan.
  util::Xoshiro256 rng(12);
  const auto small = random_fleet(rng, 30, 10.0, 300.0, 10.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(small, {});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  medium.receivers(0, 100.0, 0.0, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 1u);
  const Medium brute(small, {.brute_force = true});
  for (const double t : {0.0, 4.0, 9.5}) {
    expect_equal_queries(medium, brute, 100.0, t);
  }
}

TEST(MediumGrid, GridExaminesFarFewerCandidatesOnDenseFleets) {
  util::Xoshiro256 rng(11);
  const auto traces = random_fleet(rng, 600, 10.0, 2000.0, 10.0);
  obs::RunObservation grid_obs;
  obs::RunObservation brute_obs;
  const obs::Probe grid_probe(&grid_obs);
  const obs::Probe brute_probe(&brute_obs);
  Medium grid(traces, {});
  Medium brute(traces, {.brute_force = true});
  grid.set_probe(&grid_probe);
  brute.set_probe(&brute_probe);
  std::vector<NodeId> out;
  for (double t = 0.0; t <= 10.0; t += 1.0) {
    for (NodeId u = 0; u < grid.node_count(); ++u) {
      grid.receivers(u, 150.0, t, out);
      brute.receivers(u, 150.0, t, out);
    }
  }
  const auto grid_checks =
      grid_obs.counters.total(obs::Counter::kMediumCandidates);
  const auto brute_checks =
      brute_obs.counters.total(obs::Counter::kMediumCandidates);
  EXPECT_LT(grid_checks * 5, brute_checks)
      << "spatial index no longer filters candidates (grid=" << grid_checks
      << ", brute=" << brute_checks << ")";
  // Both paths accepted the same receiver sets.
  EXPECT_EQ(grid_obs.counters.total(obs::Counter::kMediumCandidatesAccepted),
            brute_obs.counters.total(obs::Counter::kMediumCandidatesAccepted));
}

TEST(MediumGrid, ZeroRangeSenderNeverTouchesTheIndex) {
  // A sender whose selection is empty (actual range 0, no buffer) queries
  // with range <= 0. Sizing grid cells for that radius once poisoned the
  // epoch: the 1.0-unit fallback cells made every later full-range query
  // walk hundreds of thousands of cells. The degenerate radius must stay
  // on the brute scan and leave the index alone.
  util::Xoshiro256 rng(13);
  const auto traces = random_fleet(rng, 200, 10.0, 800.0, 5.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(traces, {});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  medium.receivers(0, 0.0, 0.0, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 0u);
  // The full-range query that follows builds cells for ITS radius.
  medium.receivers(1, 150.0, 0.0, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 1u);
  // Interleaved degenerate queries neither rebuild nor diverge.
  medium.receivers(2, 0.0, 0.1, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 1u);
  const Medium brute(traces, {.brute_force = true});
  expect_equal_queries(medium, brute, 0.0, 0.2);
  expect_equal_queries(medium, brute, 150.0, 0.2);
}

TEST(MediumGrid, LargerRadiusRatchetsTheIndexInsteadOfScanningTinyCells) {
  // Per-node actual/extended ranges vary, so a grid built for a small
  // radius can face a much larger one inside the same epoch. The larger
  // request must rebuild (cells sized for it), smaller ones must keep
  // riding the existing build, and every answer must match brute force.
  util::Xoshiro256 rng(14);
  const auto traces = random_fleet(rng, 200, 10.0, 800.0, 0.0);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  Medium medium(traces, {});
  medium.set_probe(&probe);
  std::vector<NodeId> out;
  medium.receivers(0, 30.0, 0.0, out);
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 1u);
  medium.receivers(1, 200.0, 0.0, out);  // outgrows the 30-unit cells
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 2u);
  medium.receivers(2, 80.0, 0.0, out);  // served by the 200-unit build
  EXPECT_EQ(observation.counters.total(obs::Counter::kMediumGridRebuilds), 2u);
  const Medium brute(traces, {.brute_force = true});
  for (const double r : {30.0, 80.0, 200.0}) {
    expect_equal_queries(medium, brute, r, 0.0);
  }
}

TEST(MediumGrid, SingleNodeAndEmptyRangeEdgeCases) {
  std::vector<Trace> traces;
  traces.push_back(Trace({Leg{0.0, {5.0, 5.0}, {1.0, 0.0}}}, 10.0));
  const Medium grid(traces, {});
  const Medium brute(traces, {.brute_force = true});
  std::vector<NodeId> out{99};
  grid.receivers(0, 100.0, 3.0, out);
  EXPECT_TRUE(out.empty());
  expect_equal_queries(grid, brute, 0.0, 1.0);
  EXPECT_TRUE(grid.links_within(100.0, 0.0).empty());
}

}  // namespace
}  // namespace mstc::sim
