// Equivalence anchors: the link-removal implementations must coincide with
// the classical constructions they encode.
//  * Condition 3 (bottleneck removal)  == edges at the owner in the MST of
//    its local view (cycle property).
//  * Condition 2 (sum removal)         == children of the owner in the
//    shortest-path tree of its local view.
//  * Condition 1 (witness removal)     == RNG membership computed purely
//    geometrically.
#include <gtest/gtest.h>

#include "geom/predicates.hpp"
#include "graph/algorithms.hpp"
#include "support/view_fixtures.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace mstc::topology {
namespace {

using fixtures::random_view;

TEST(Equivalence, LmstSelectionMatchesLocalMstEdges) {
  const DistanceCost cost;
  const LmstProtocol protocol;
  util::Xoshiro256 rng(111);
  for (int trial = 0; trial < 30; ++trial) {
    const auto local = random_view(rng, 5 + rng.uniform_below(15), cost);
    // Kruskal MST over the view's links.
    std::vector<graph::EdgeRecord> edges;
    for (std::size_t i = 0; i < local.view.node_count(); ++i) {
      for (std::size_t j = i + 1; j < local.view.node_count(); ++j) {
        if (local.view.has_link(i, j)) {
          edges.push_back({i, j, local.view.cost_min(i, j).value});
        }
      }
    }
    const auto tree = graph::kruskal_mst(local.view.node_count(), edges);
    std::vector<std::size_t> mst_neighbors;
    for (const auto& e : tree) {
      if (e.u == 0) mst_neighbors.push_back(e.v);
      if (e.v == 0) mst_neighbors.push_back(e.u);
    }
    std::sort(mst_neighbors.begin(), mst_neighbors.end());
    auto selected = protocol.select(local.view);
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, mst_neighbors) << "trial " << trial;
  }
}

TEST(Equivalence, SptSelectionMatchesShortestPathTreeChildren) {
  const EnergyCost cost(2.0);
  const SptProtocol protocol("SPT-2");
  util::Xoshiro256 rng(222);
  for (int trial = 0; trial < 30; ++trial) {
    const auto local = random_view(rng, 5 + rng.uniform_below(15), cost);
    // Dijkstra over the view from the owner.
    graph::Graph g(local.view.node_count());
    for (std::size_t i = 0; i < local.view.node_count(); ++i) {
      for (std::size_t j = i + 1; j < local.view.node_count(); ++j) {
        if (local.view.has_link(i, j)) {
          g.add_edge(i, j, local.view.cost_min(i, j).value);
        }
      }
    }
    const auto sp = graph::dijkstra(g, 0);
    // SPT children of the root: nodes whose shortest path uses the direct
    // link (parent chain leads straight to 0).
    std::vector<std::size_t> children;
    for (std::size_t v = 1; v < local.view.node_count(); ++v) {
      if (sp.parent[v] == 0) children.push_back(v);
    }
    auto selected = protocol.select(local.view);
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, children) << "trial " << trial;
  }
}

TEST(Equivalence, RngSelectionMatchesGeometricRngMembership) {
  const DistanceCost cost;
  const RngProtocol protocol;
  util::Xoshiro256 rng(333);
  for (int trial = 0; trial < 30; ++trial) {
    const auto local = random_view(rng, 5 + rng.uniform_below(15), cost);
    // Geometric RNG: keep (0, v) iff no view node sits in the open lune.
    std::vector<std::size_t> geometric;
    for (std::size_t v = 1; v < local.view.node_count(); ++v) {
      bool witnessed = false;
      for (std::size_t w = 1; w < local.view.node_count() && !witnessed;
           ++w) {
        if (w == v) continue;
        witnessed = geom::in_rng_lune(local.positions[0],
                                      local.positions[v],
                                      local.positions[w]);
      }
      if (!witnessed) geometric.push_back(v);
    }
    auto selected = protocol.select(local.view);
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, geometric) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mstc::topology
