// Whole-network topology construction from a position snapshot.
//
// Runs the per-node protocol over every node's (consistent) local view and
// assembles the paper's three topologies:
//   original  — links within the normal transmission range,
//   logical   — links kept by BOTH end nodes (Theorem 1's E' = E - ER,
//               where a link is removed if either end node removes it),
//   effective — logical links covered by both actual transmission ranges.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "topology/protocol.hpp"

namespace mstc::topology {

struct BuiltTopology {
  /// Per node: sorted global ids of the logical neighbors it selected.
  std::vector<std::vector<NodeId>> logical_neighbors;
  /// Per node: actual transmission range = distance to farthest logical
  /// neighbor (0 when a node selected none).
  std::vector<double> range;

  [[nodiscard]] bool selects(NodeId u, NodeId v) const;

  /// Average actual transmission range (Table 1's "transmission range").
  [[nodiscard]] double average_range() const;

  /// Average logical node degree under the both-ends rule (Table 1's
  /// "node degree").
  [[nodiscard]] double average_logical_degree() const;
};

/// Builds every node's selection from exact (consistent) views: node u's
/// view contains the nodes within `normal_range` of u. Positions index ==
/// global node id.
[[nodiscard]] BuiltTopology build_topology(
    std::span<const geom::Vec2> positions, double normal_range,
    const Protocol& protocol, const CostModel& cost);

/// The original topology: links no longer than `normal_range`, weighted by
/// distance.
[[nodiscard]] graph::Graph original_graph(std::span<const geom::Vec2> positions,
                                          double normal_range);

/// The logical topology E' (both-ends rule) over the same positions.
[[nodiscard]] graph::Graph logical_graph(const BuiltTopology& topo,
                                         std::span<const geom::Vec2> positions);

/// The effective topology at the given (possibly later) positions: logical
/// links (u, v) with current distance <= min(range_u + buffer, range_v +
/// buffer). `buffer` is the buffer-zone width l of Section 4.3.
[[nodiscard]] graph::Graph effective_graph(
    const BuiltTopology& topo, std::span<const geom::Vec2> current_positions,
    double buffer = 0.0);

}  // namespace mstc::topology
