#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <numbers>

#include "topology/cost.hpp"
#include "topology/view_graph.hpp"
#include "util/prng.hpp"

namespace mstc::topology {
namespace {

using geom::Vec2;

TEST(CostModel, DistanceCostIsIdentity) {
  const DistanceCost cost;
  EXPECT_DOUBLE_EQ(cost.cost(7.5), 7.5);
  EXPECT_EQ(cost.name(), "distance");
}

TEST(CostModel, EnergyCostPowerLaw) {
  const EnergyCost free_space(2.0);
  EXPECT_DOUBLE_EQ(free_space.cost(3.0), 9.0);
  const EnergyCost two_ray(4.0, 5.0);
  EXPECT_DOUBLE_EQ(two_ray.cost(2.0), 21.0);
  EXPECT_DOUBLE_EQ(two_ray.alpha(), 4.0);
}

TEST(CostModel, EnergyCostIsMonotone) {
  const EnergyCost cost(4.0, 10.0);
  double previous = cost.cost(0.0);
  for (double d = 0.5; d <= 250.0; d += 0.5) {
    const double current = cost.cost(d);
    EXPECT_GT(current, previous);
    previous = current;
  }
}

// --- Cost floors: a lower bound on cost(hypot(dx, dy)) from d^2 ---------

/// The models the floor must bound: the paper's distance and d^2 / d^4
/// energy costs, and one other exponent with a per-hop overhead, which
/// takes the std::pow path.
struct FloorCase {
  const char* name;
  const CostModel* model;
};

const DistanceCost kDistance;
const EnergyCost kFreeSpace(2.0);
const EnergyCost kTwoRay(4.0);
const EnergyCost kOtherAlpha(3.0, 7.5);
const std::array<FloorCase, 4> kFloorCases{{{"distance", &kDistance},
                                            {"alpha 2", &kFreeSpace},
                                            {"alpha 4", &kTwoRay},
                                            {"alpha 3, c0 7.5", &kOtherAlpha}}};

/// Checks the floor of fl(dx*dx + dy*dy), and of every smaller squared
/// distance tried, against the cost of the hypot distance; returns the
/// floor of the rounded squared distance itself.
double expect_floor_bounds(const CostModel& model, double dx, double dy) {
  const double d_sq = dx * dx + dy * dy;
  const double exact = model.cost(std::hypot(dx, dy));
  const double floor = model.cost_floor(d_sq);
  EXPECT_LE(floor, exact) << model.name() << " dx " << dx << " dy " << dy;
  for (const double smaller : {std::nextafter(d_sq, 0.0), 0.5 * d_sq, 0.0}) {
    EXPECT_LE(model.cost_floor(smaller), exact)
        << model.name() << " dx " << dx << " dy " << dy << " at " << smaller;
  }
  return floor;
}

TEST(CostFloor, NeverExceedsTheHypotCostOnRandomPairs) {
  // Coordinates as the views hold them (differences of positions up to a
  // few ranges apart) and over many magnitudes; the floor must also be
  // tight, within 1e-11 of the cost, wherever it is not trivial.
  util::Xoshiro256 rng(5);
  for (const FloorCase& c : kFloorCases) {
    const double base = c.model->cost(0.0);
    for (int trial = 0; trial < 20000; ++trial) {
      const double scale = trial % 2 == 0
                               ? 750.0
                               : std::pow(10.0, rng.uniform(-60.0, 60.0));
      const Vec2 p{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
      const Vec2 q{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
      const Vec2 delta = p - q;
      const double floor = expect_floor_bounds(*c.model, delta.x, delta.y);
      const double exact = c.model->cost(std::hypot(delta.x, delta.y));
      if (floor != base) {
        EXPECT_GE(floor, exact * (1.0 - 1e-11)) << c.name;
      }
    }
  }
}

TEST(CostFloor, BoundsLatticeAndRangeEdgeDistances) {
  // Lattice distances where fl(d^2) and the hypot are exact (3-4-5 and
  // 20-21-29 triples, axis-aligned runs): the floor must stay strictly
  // below, since the margin is what absorbs the rounding elsewhere.
  // Then distances of exactly the 250 m range in random directions.
  for (const FloorCase& c : kFloorCases) {
    for (const auto& [dx, dy] : std::array<std::pair<double, double>, 6>{
             {{3.0, 4.0}, {-20.0, 21.0}, {150.0, 200.0}, {250.0, 0.0},
              {0.0, -125.0}, {1.0, 0.0}}}) {
      const double floor = expect_floor_bounds(*c.model, dx, dy);
      EXPECT_LT(floor, c.model->cost(std::hypot(dx, dy))) << c.name;
    }
    util::Xoshiro256 rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      (void)expect_floor_bounds(*c.model, 250.0 * std::cos(angle),
                                250.0 * std::sin(angle));
    }
  }
}

TEST(CostFloor, FallsBackToTheZeroCostOutsideNormalNumbers) {
  // Zero, subnormal, infinite and NaN squared distances, and (for the
  // power models) squared distances whose power underflows or overflows:
  // the relative-margin argument does not hold there, so the floor is the
  // trivial cost(0).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min() * 64;
  for (const FloorCase& c : kFloorCases) {
    const double base = c.model->cost(0.0);
    for (const double d_sq : {0.0, subnormal, kInf,
                              std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_EQ(c.model->cost_floor(d_sq), base) << c.name << " at " << d_sq;
    }
    // Coordinates whose squares underflow to a subnormal or zero, or
    // overflow: the floor is trivial there, and still a bound.
    for (const auto& [dx, dy] : std::array<std::pair<double, double>, 5>{
             {{1e-160, 0.0}, {1e-170, 1e-170}, {3e-200, -4e-200},
              {1e200, 1.0}, {-1e300, 1e300}}}) {
      EXPECT_EQ(expect_floor_bounds(*c.model, dx, dy), base) << c.name;
    }
  }
  // d^2 normal, d^4 subnormal or infinite: the alpha = 4 floor is trivial.
  EXPECT_EQ(kTwoRay.cost_floor(1e-160), kTwoRay.cost(0.0));
  EXPECT_EQ(kTwoRay.cost_floor(1e160), kTwoRay.cost(0.0));
  EXPECT_GT(kTwoRay.cost_floor(1e-150), 0.0);
  // The same for the pow path (alpha 3: d^3 = (d^2)^1.5).
  EXPECT_EQ(kOtherAlpha.cost_floor(1e-210), 7.5);
  EXPECT_EQ(kOtherAlpha.cost_floor(1e210), 7.5);
  // Past the largest exponent the margin covers, the floor is trivial.
  const EnergyCost steep(100.0, 1.0);
  EXPECT_EQ(steep.cost_floor(4.0), steep.cost(0.0));
}

TEST(CostKey, OrderedByValueFirst) {
  const CostKey a = CostKey::make(1.0, 5, 9);
  const CostKey b = CostKey::make(2.0, 0, 1);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
}

TEST(CostKey, TiesBrokenByNodeIds) {
  const CostKey a = CostKey::make(1.0, 2, 3);
  const CostKey b = CostKey::make(1.0, 2, 4);
  const CostKey c = CostKey::make(1.0, 1, 9);
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // lower lo id wins
}

TEST(CostKey, MakeNormalizesEndpointOrder) {
  EXPECT_EQ(CostKey::make(1.0, 7, 3), CostKey::make(1.0, 3, 7));
}

TEST(CostKey, DistinctLinksNeverEqual) {
  // Total order requirement of Theorem 1.
  const CostKey a = CostKey::make(4.0, 0, 1);
  const CostKey b = CostKey::make(4.0, 0, 2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(ViewGraph, OwnerIsIndexZero) {
  ViewGraph view(42, 2);
  EXPECT_EQ(view.owner(), 42u);
  EXPECT_EQ(view.node_count(), 3u);
  EXPECT_EQ(view.neighbor_count(), 2u);
}

TEST(ViewGraph, SetLinkIsSymmetric) {
  ViewGraph view(0, 2);
  view.set_id(1, 10);
  view.set_id(2, 20);
  const CostKey lo = CostKey::make(3.0, 0, 10);
  const CostKey hi = CostKey::make(5.0, 0, 10);
  view.set_link(0, 1, 3.0, 5.0, lo, hi);
  EXPECT_TRUE(view.has_link(0, 1));
  EXPECT_TRUE(view.has_link(1, 0));
  EXPECT_FALSE(view.has_link(0, 2));
  EXPECT_EQ(view.cost_min(1, 0), lo);
  EXPECT_EQ(view.cost_max(0, 1), hi);
  EXPECT_DOUBLE_EQ(view.distance_min(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(view.distance_max(0, 1), 5.0);
}

TEST(MakeConsistentView, SelectsNeighborsWithinRange) {
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}, {30, 0}, {100, 0}};
  const std::vector<NodeId> ids = {0, 1, 2, 3};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.owner(), 0u);
  EXPECT_EQ(view.neighbor_count(), 2u);  // nodes 1 and 2; node 3 out of range
  EXPECT_EQ(view.id(1), 1u);
  EXPECT_EQ(view.id(2), 2u);
}

TEST(MakeConsistentView, NeighborNeighborLinksIncluded) {
  // Node 1 and node 2 are 20 apart: linked in node 0's view.
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}, {30, 0}};
  const std::vector<NodeId> ids = {0, 1, 2};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_TRUE(view.has_link(1, 2));
  EXPECT_DOUBLE_EQ(view.distance_min(1, 2), 20.0);
  EXPECT_EQ(view.cost_min(1, 2), CostKey::make(20.0, 1, 2));
}

TEST(MakeConsistentView, NeighborLinksBeyondRangeExcluded) {
  // Nodes 1 and 2 are both within range of 0, but 40 apart (> 35).
  const std::vector<Vec2> positions = {{0, 0}, {-20, 0}, {20, 0}};
  const std::vector<NodeId> ids = {0, 1, 2};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.neighbor_count(), 2u);
  EXPECT_TRUE(view.has_link(0, 1));
  EXPECT_TRUE(view.has_link(0, 2));
  EXPECT_FALSE(view.has_link(1, 2));
}

TEST(MakeConsistentView, PointIntervals) {
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}};
  const std::vector<NodeId> ids = {0, 1};
  const EnergyCost cost(2.0);
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.cost_min(0, 1), view.cost_max(0, 1));
  EXPECT_DOUBLE_EQ(view.cost_min(0, 1).value, 100.0);
}

}  // namespace
}  // namespace mstc::topology
