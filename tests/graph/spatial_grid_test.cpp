#include "graph/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace mstc::graph {
namespace {

using geom::Vec2;

std::vector<std::size_t> brute_force(const std::vector<Vec2>& points,
                                     Vec2 center, double radius) {
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (geom::distance(center, points[i]) <= radius) hits.push_back(i);
  }
  return hits;
}

/// A query's hits in ascending index order (query() emits cell order).
std::vector<std::size_t> sorted_query(const SpatialGrid& grid, Vec2 center,
                                      double radius) {
  std::vector<std::size_t> out;
  grid.query(center, radius, out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, EmptyPointSet) {
  const SpatialGrid grid({}, 10.0);
  std::vector<std::size_t> out{99};
  grid.query({0, 0}, 100.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGrid, SinglePoint) {
  const std::vector<Vec2> points = {{5.0, 5.0}};
  const SpatialGrid grid(points, 10.0);
  std::vector<std::size_t> out;
  grid.query({0.0, 0.0}, 10.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  grid.query({0.0, 0.0}, 5.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGrid, RadiusIsInclusive) {
  const std::vector<Vec2> points = {{3.0, 4.0}};
  const SpatialGrid grid(points, 5.0);
  std::vector<std::size_t> out;
  grid.query({0.0, 0.0}, 5.0, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SpatialGrid, MatchesBruteForceOnRandomPoints) {
  util::Xoshiro256 rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec2> points;
    const std::size_t n = 50 + rng.uniform_below(200);
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
    }
    const SpatialGrid grid(points, 250.0);
    std::vector<std::size_t> out;
    for (int q = 0; q < 20; ++q) {
      const Vec2 center{rng.uniform(-50.0, 950.0), rng.uniform(-50.0, 950.0)};
      const double radius = rng.uniform(10.0, 400.0);
      grid.query(center, radius, out);
      std::sort(out.begin(), out.end());
      EXPECT_EQ(out, brute_force(points, center, radius));
    }
  }
}

TEST(SpatialGrid, QueryLargerThanCellSizeStillCorrect) {
  util::Xoshiro256 rng(56);
  std::vector<Vec2> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const SpatialGrid grid(points, 5.0);  // cells much smaller than query
  std::vector<std::size_t> out;
  grid.query({50.0, 50.0}, 80.0, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, brute_force(points, {50.0, 50.0}, 80.0));
}

TEST(SpatialGrid, QueryEmitsHitsInCellOrder) {
  // Documented order (see spatial_grid.hpp): rows ascending, cells left to
  // right within a row, ascending index within a cell — each hit once.
  // Callers that need ascending indices sort what they keep. The extent
  // and cell size keep the table below its O(n) cap, so cells are exactly
  // floor(coordinate / 80).
  util::Xoshiro256 rng(57);
  const double cell = 80.0;
  const auto cell_key = [&](Vec2 p) {
    return std::pair{std::floor(p.y / cell), std::floor(p.x / cell)};
  };
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Vec2> points;
    const std::size_t n = 100 + rng.uniform_below(300);
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)});
    }
    const SpatialGrid grid(points, cell);
    std::vector<std::size_t> out;
    for (int q = 0; q < 25; ++q) {
      const Vec2 center{rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)};
      const double radius = rng.uniform(20.0, 250.0);
      grid.query(center, radius, out);
      for (std::size_t k = 1; k < out.size(); ++k) {
        const auto before = std::tuple_cat(cell_key(points[out[k - 1]]),
                                           std::tuple{out[k - 1]});
        const auto after =
            std::tuple_cat(cell_key(points[out[k]]), std::tuple{out[k]});
        ASSERT_LT(before, after) << "hits " << k - 1 << " and " << k;
      }
      std::sort(out.begin(), out.end());
      EXPECT_EQ(out, brute_force(points, center, radius));
    }
  }
}

TEST(SpatialGrid, RowRunScanMatchesBruteForceAtAreaEdges) {
  // Fleets that touch the area's edges and corners, queried from inside,
  // on and beyond the edges with radii from zero to several cells: each
  // row of the query block is scanned as one contiguous run, clipped to
  // the table, so the first and last columns and rows are where a run
  // could start or end one cell off.
  util::Xoshiro256 rng(59);
  for (int trial = 0; trial < 12; ++trial) {
    const double extent = rng.uniform(100.0, 900.0);
    std::vector<Vec2> points;
    const std::size_t n = 30 + rng.uniform_below(250);
    for (std::size_t i = 0; i < n; ++i) {
      Vec2 p{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
      switch (rng.uniform_below(6)) {
        case 0: p.x = 0.0; break;
        case 1: p.x = extent; break;
        case 2: p.y = 0.0; break;
        case 3: p.y = extent; break;
        default: break;
      }
      points.push_back(p);
    }
    for (const Vec2 corner :
         {Vec2{0.0, 0.0}, Vec2{extent, 0.0}, Vec2{0.0, extent},
          Vec2{extent, extent}}) {
      points.push_back(corner);
    }
    const double cell = rng.uniform(0.05, 0.5) * extent;
    const SpatialGrid grid(points, cell);
    for (int q = 0; q < 40; ++q) {
      Vec2 center{rng.uniform(-0.2, 1.2) * extent,
                  rng.uniform(-0.2, 1.2) * extent};
      if (q % 4 == 0) center = points[rng.uniform_below(points.size())];
      const double radius = q % 8 == 1 ? 0.0 : rng.uniform(0.0, 3.0) * cell;
      EXPECT_EQ(sorted_query(grid, center, radius),
                brute_force(points, center, radius))
          << "trial " << trial << " query " << q;
    }
  }
}

TEST(SpatialGrid, RebuildMatchesFreshConstruction) {
  util::Xoshiro256 rng(58);
  SpatialGrid reused;  // default-constructed: empty until rebuilt
  std::vector<std::size_t> out;
  reused.query({0.0, 0.0}, 1e9, out);
  EXPECT_TRUE(out.empty());

  for (int round = 0; round < 6; ++round) {
    std::vector<Vec2> points;
    const std::size_t n = 20 + rng.uniform_below(150);
    const double extent = rng.uniform(50.0, 800.0);
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
    }
    const double cell = rng.uniform(10.0, 200.0);
    reused.rebuild(points, cell);
    const SpatialGrid fresh(points, cell);
    EXPECT_EQ(reused.point_count(), n);
    std::vector<std::size_t> fresh_out;
    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
      const double radius = rng.uniform(5.0, extent);
      reused.query(center, radius, out);
      fresh.query(center, radius, fresh_out);
      EXPECT_EQ(out, fresh_out);
      EXPECT_EQ(sorted_query(reused, center, radius),
                brute_force(points, center, radius));
    }
  }

  // Shrinking to empty and growing again must both work in place.
  reused.rebuild({}, 10.0);
  reused.query({0.0, 0.0}, 1e9, out);
  EXPECT_TRUE(out.empty());
  const std::vector<Vec2> one = {{1.0, 2.0}};
  reused.rebuild(one, 10.0);
  reused.query({1.0, 2.0}, 0.0, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));
}

TEST(SpatialGrid, DegenerateCellSizeIsCappedAtFleetScale) {
  // A cell size far below the point spacing (or the <= 0 fallback of 1.0
  // over a kilometers-wide span) must not materialize a table with
  // billions of cells: rebuild caps the cell count at O(n) by widening the
  // cells, and queries stay exact. Without the cap the first rebuild here
  // would try to allocate ~10^15 counters and the second would leave
  // every wide query scanning millions of slots.
  util::Xoshiro256 rng(77);
  std::vector<Vec2> points;
  for (std::size_t i = 0; i < 300; ++i) {
    points.push_back({rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)});
  }
  for (const double cell : {1e-9, 1.0, 0.0}) {
    const SpatialGrid grid(points, cell);
    for (int q = 0; q < 5; ++q) {
      const Vec2 center{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)};
      const double radius = rng.uniform(1e4, 5e5);
      EXPECT_EQ(sorted_query(grid, center, radius),
                brute_force(points, center, radius));
    }
  }
}

TEST(SpatialGrid, NegativeCoordinatesSupported) {
  const std::vector<Vec2> points = {{-100.0, -100.0}, {100.0, 100.0}};
  const SpatialGrid grid(points, 50.0);
  std::vector<std::size_t> out;
  grid.query({-100.0, -100.0}, 1.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

}  // namespace
}  // namespace mstc::graph
