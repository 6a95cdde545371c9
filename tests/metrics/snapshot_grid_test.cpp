// Differential suite for the grid-backed snapshot measurement (PR 5).
//
// measure_snapshot's fast path — SpatialGrid candidate sets, union-find
// connectivity, mutual-logical count by is_logical lookups — claims *byte*
// identity with the straightforward O(n^2) measurement, not approximate
// equality. These tests hold it to that: a verbatim reference
// implementation of the pre-optimization measurement (brute pair scan,
// materialized effective Graph, per-neighbor is_logical probe) is
// byte-compared against both the brute_force escape hatch and the grid
// path (the default config, for every fleet size) over randomized fleets,
// exact ==range boundaries, the physical-neighbor enhancement on and off,
// and the empty / singleton edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/effective.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "metrics/snapshot.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace mstc::metrics {
namespace {

using geom::Vec2;

// Exact IEEE-754 bit patterns: two stats are "byte-identical" iff these
// arrays compare equal. EXPECT_DOUBLE_EQ would hide one-ulp drift, which
// is exactly the failure mode a resorted candidate set would introduce.
std::array<std::uint64_t, 4> bits(const SnapshotStats& stats) {
  return {std::bit_cast<std::uint64_t>(stats.strict_connectivity),
          std::bit_cast<std::uint64_t>(stats.mean_range),
          std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
          std::bit_cast<std::uint64_t>(stats.mean_physical_degree)};
}

// Verbatim pre-PR measurement: brute pair scans in ascending index order,
// connectivity through a materialized effective Graph, mutual-logical
// count through the per-neighbor is_logical probe. Any deviation the fast
// path introduces shows up against this, bit for bit.
SnapshotStats reference_snapshot(
    std::span<const core::NodeController> controllers,
    std::span<const geom::Vec2> positions) {
  const std::size_t n = controllers.size();
  SnapshotStats stats;
  if (n == 0) return stats;

  graph::Graph effective(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const double d = geom::distance(positions[u], positions[v]);
      if (core::can_deliver(controllers[u], controllers[v], d) &&
          core::can_deliver(controllers[v], controllers[u], d)) {
        effective.add_edge(u, v, d);
      }
    }
  }
  stats.strict_connectivity = graph::pair_connectivity_ratio(effective);

  double range_total = 0.0;
  std::size_t logical_total = 0;
  std::size_t physical_total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const double range = controllers[u].extended_range();
    range_total += range;
    const double range_sq = range * range;
    for (const core::NodeId v : controllers[u].logical_neighbors()) {
      if (controllers[v].is_logical(static_cast<core::NodeId>(u))) {
        ++logical_total;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (v != u &&
          geom::distance_sq(positions[u], positions[v]) <= range_sq) {
        ++physical_total;
      }
    }
  }
  stats.mean_range = range_total / static_cast<double>(n);
  stats.mean_logical_degree =
      static_cast<double>(logical_total) / static_cast<double>(n);
  stats.mean_physical_degree =
      static_cast<double>(physical_total) / static_cast<double>(n);
  return stats;
}

struct Fleet {
  // Cost/protocol must outlive the controllers, which hold references.
  topology::ProtocolSuite suite;
  std::vector<core::NodeController> nodes;
  std::vector<Vec2> positions;
};

/// Uniform fleet in a side x side square with a full Hello exchange, so
/// every controller has selected against a complete local view.
Fleet make_fleet(std::size_t n, double side, std::uint64_t seed,
                 std::string_view protocol, bool physical_neighbors,
                 double normal_range = 250.0) {
  Fleet fleet;
  fleet.suite = topology::make_protocol(protocol);
  util::Xoshiro256 rng(seed);
  fleet.positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet.positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  core::ControllerConfig config;
  config.normal_range = normal_range;
  config.accept_physical_neighbors = physical_neighbors;
  fleet.nodes.reserve(n);
  for (core::NodeId u = 0; u < n; ++u) {
    fleet.nodes.emplace_back(u, *fleet.suite.protocol, *fleet.suite.cost,
                             config);
  }
  for (core::NodeId u = 0; u < n; ++u) {
    for (core::NodeId v = 0; v < n; ++v) {
      const double d = geom::distance(fleet.positions[u], fleet.positions[v]);
      if (u != v && d <= normal_range) {
        fleet.nodes[u].on_hello_receive({v, {fleet.positions[v], 1, 0.1}},
                                        0.1);
      }
    }
  }
  for (core::NodeId u = 0; u < n; ++u) {
    fleet.nodes[u].on_hello_send(0.5, fleet.positions[u], 1);
  }
  return fleet;
}

/// Reference vs brute escape hatch vs default grid, all byte-compared.
void expect_all_paths_identical(const Fleet& fleet) {
  const auto reference = bits(reference_snapshot(fleet.nodes, fleet.positions));

  SnapshotScratch brute_scratch;
  const auto brute = bits(measure_snapshot(fleet.nodes, fleet.positions,
                                           brute_scratch,
                                           {.brute_force = true}));
  ASSERT_EQ(brute, reference)
      << "brute-force fast path diverged from the reference measurement";

  SnapshotScratch grid_scratch;
  const auto grid =
      bits(measure_snapshot(fleet.nodes, fleet.positions, grid_scratch));
  ASSERT_EQ(grid, reference)
      << "grid-backed path diverged from the reference measurement";

  // Scratch reuse must not leak state between snapshots: measuring again
  // through the same (already warm) scratch gives the same bytes.
  const auto grid_again =
      bits(measure_snapshot(fleet.nodes, fleet.positions, grid_scratch));
  ASSERT_EQ(grid_again, reference) << "scratch reuse changed the result";
}

TEST(SnapshotGrid, RandomFleetsMatchReferenceByteForByte) {
  // Spread over protocols (symmetric and asymmetric selections), fleet
  // sizes from 40 to 200, and densities from sparse (few grid candidates)
  // to a single crowded cell.
  expect_all_paths_identical(make_fleet(40, 900.0, 1, "RNG", false));
  expect_all_paths_identical(make_fleet(120, 600.0, 2, "MST", false));
  expect_all_paths_identical(make_fleet(200, 1200.0, 3, "KNeigh", false));
  expect_all_paths_identical(make_fleet(60, 150.0, 4, "None", false));
  expect_all_paths_identical(make_fleet(75, 2500.0, 5, "SPT-2", false));
}

TEST(SnapshotGrid, PhysicalNeighborEnhancementOnAndOff) {
  // accept_physical_neighbors changes can_deliver's second clause, which
  // changes which candidate pairs become links — both settings must agree
  // with the reference.
  expect_all_paths_identical(make_fleet(90, 700.0, 6, "RNG", true));
  expect_all_paths_identical(make_fleet(90, 700.0, 6, "RNG", false));
  expect_all_paths_identical(make_fleet(160, 900.0, 7, "KNeigh", true));
}

TEST(SnapshotGrid, ExactRangeBoundaryAgrees) {
  // A node's extended range sits one relative pad (1e-9, controller.cpp)
  // above the distance to its farthest logical neighbor, so comparisons a
  // handful of ulps from ==range are the *common* case, not a corner: on
  // this line every node's range lands essentially on another node. The
  // padded grid query must keep every such boundary candidate the brute
  // scan would test — dropping one would flip a link and fail the byte
  // compare.
  Fleet fleet;
  fleet.suite = topology::make_protocol("None");
  core::ControllerConfig config;
  config.normal_range = 100.0;
  const std::size_t n = 8;
  for (core::NodeId u = 0; u < n; ++u) {
    fleet.positions.push_back({static_cast<double>(u) * 10.0, 0.0});
    fleet.nodes.emplace_back(u, *fleet.suite.protocol, *fleet.suite.cost,
                             config);
  }
  for (core::NodeId u = 0; u < n; ++u) {
    for (core::NodeId v = 0; v < n; ++v) {
      if (u != v) {
        fleet.nodes[u].on_hello_receive({v, {fleet.positions[v], 1, 0.1}},
                                        0.1);
      }
    }
    fleet.nodes[u].on_hello_send(0.5, fleet.positions[u], 1);
  }
  // Sanity: node 0's range reaches node 7 with only the relative pad to
  // spare — the rounding-critical regime for the r^2 comparison.
  ASSERT_GE(fleet.nodes[0].extended_range(), 70.0);
  ASSERT_LE(fleet.nodes[0].extended_range(), 70.0 * (1.0 + 1e-8));
  expect_all_paths_identical(fleet);
}

TEST(SnapshotGrid, EmptyAndSingletonFleets) {
  SnapshotScratch scratch;
  const SnapshotStats empty = measure_snapshot({}, {}, scratch);
  EXPECT_EQ(bits(empty), bits(SnapshotStats{}));

  const Fleet one = make_fleet(1, 100.0, 8, "RNG", false);
  const SnapshotStats single =
      measure_snapshot(one.nodes, one.positions, scratch);
  EXPECT_DOUBLE_EQ(single.strict_connectivity, 1.0);  // n < 2 convention
  EXPECT_DOUBLE_EQ(single.mean_range, 0.0);  // no logical neighbors
  EXPECT_DOUBLE_EQ(single.mean_logical_degree, 0.0);
  EXPECT_DOUBLE_EQ(single.mean_physical_degree, 0.0);
  expect_all_paths_identical(one);
}

TEST(SnapshotGrid, MutualMergeMatchesIsLogicalOnAsymmetricSelections) {
  // KNeigh keeps the k nearest regardless of reciprocity, so plenty of
  // one-directional logical edges exist: exactly the case where the
  // mutual count could go wrong if it confused directed with mutual.
  const Fleet fleet = make_fleet(130, 800.0, 9, "KNeigh", false);
  std::size_t asymmetric = 0;
  std::size_t mutual_reference = 0;
  for (const auto& node : fleet.nodes) {
    for (const core::NodeId v : node.logical_neighbors()) {
      if (fleet.nodes[v].is_logical(node.id())) {
        ++mutual_reference;
      } else {
        ++asymmetric;
      }
    }
  }
  ASSERT_GT(asymmetric, 0u) << "fleet has no asymmetric selections; "
                               "the test is not exercising the count";
  SnapshotScratch scratch;
  const SnapshotStats stats =
      measure_snapshot(fleet.nodes, fleet.positions, scratch);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
            std::bit_cast<std::uint64_t>(
                static_cast<double>(mutual_reference) /
                static_cast<double>(fleet.nodes.size())));
}

TEST(SnapshotGrid, MutualMergeRequiresSortedLogicalNeighbors) {
  // The mutual-logical count in measure_snapshot is correct only because
  // logical_neighbors() is sorted ascending — a documented contract
  // (core/controller.hpp), re-pinned here because is_logical's binary
  // search would silently miss links if a future protocol emitted
  // unsorted selections.
  for (const char* protocol :
       {"RNG", "MST", "KNeigh", "SPT-2", "Yao", "None"}) {
    const Fleet fleet = make_fleet(80, 600.0, 10, protocol, false);
    for (const auto& node : fleet.nodes) {
      const auto& logical = node.logical_neighbors();
      EXPECT_TRUE(std::is_sorted(logical.begin(), logical.end()))
          << protocol << " emitted an unsorted selection for node "
          << node.id();
      EXPECT_EQ(std::adjacent_find(logical.begin(), logical.end()),
                logical.end())
          << protocol << " emitted a duplicate logical neighbor";
    }
  }
}

TEST(SnapshotGrid, LinksExaminedCounterReflectsPruning) {
  // The grid's headline saving is fewer exact link checks; the counter
  // must report n*(n-1)/2 under brute force and strictly less on a sparse
  // fleet under the grid.
  const Fleet fleet = make_fleet(150, 3000.0, 11, "RNG", false);
  const std::uint64_t all_pairs =
      static_cast<std::uint64_t>(fleet.nodes.size()) *
      (fleet.nodes.size() - 1) / 2;

  obs::RunObservation brute_obs;
  obs::Probe brute_probe(&brute_obs);
  SnapshotScratch scratch;
  const auto brute = bits(measure_snapshot(fleet.nodes, fleet.positions,
                                           scratch, {.brute_force = true},
                                           &brute_probe));
  EXPECT_EQ(brute_obs.counters.total(obs::Counter::kSnapshotLinksExamined),
            all_pairs);

  obs::RunObservation grid_obs;
  obs::Probe grid_probe(&grid_obs);
  const auto grid = bits(measure_snapshot(fleet.nodes, fleet.positions,
                                          scratch, {}, &grid_probe));
  const std::uint64_t examined =
      grid_obs.counters.total(obs::Counter::kSnapshotLinksExamined);
  EXPECT_GT(examined, 0u);
  EXPECT_LT(examined, all_pairs)
      << "grid pruned nothing on a fleet 12x sparser than its ranges";
  EXPECT_EQ(grid, brute);
}

TEST(SnapshotGrid, DefaultConfigPaperFleetMatchesReference) {
  // The paper's fleet (100 nodes, 900 m side, 250 m range): the default
  // config takes the grid, matches the reference bit for bit, and checks
  // fewer links than the brute arm's n * (n - 1) / 2.
  const Fleet fleet = make_fleet(100, 900.0, 12, "RNG", false);
  const auto reference = bits(reference_snapshot(fleet.nodes, fleet.positions));

  obs::RunObservation brute_obs;
  obs::Probe brute_probe(&brute_obs);
  SnapshotScratch scratch;
  EXPECT_EQ(bits(measure_snapshot(fleet.nodes, fleet.positions, scratch,
                                  {.brute_force = true}, &brute_probe)),
            reference);

  obs::RunObservation grid_obs;
  obs::Probe grid_probe(&grid_obs);
  EXPECT_EQ(bits(measure_snapshot(fleet.nodes, fleet.positions, scratch, {},
                                  &grid_probe)),
            reference);
  const std::uint64_t brute_links =
      brute_obs.counters.total(obs::Counter::kSnapshotLinksExamined);
  const std::uint64_t grid_links =
      grid_obs.counters.total(obs::Counter::kSnapshotLinksExamined);
  EXPECT_EQ(brute_links, 100u * 99u / 2u);
  EXPECT_GT(grid_links, 0u);
  EXPECT_LT(grid_links, brute_links);
}

}  // namespace
}  // namespace mstc::metrics
