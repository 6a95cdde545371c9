// Topology quality analysis.
//
// Beyond connectivity, the literature the paper builds on evaluates
// topologies by their *stretch* (spanner quality, [28]/[31]) and
// *interference* (Burkhart et al. [3]). These analyses quantify what a
// protocol trades away when it thins the graph — used by the quality
// ablation bench and the protocol_tour example.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "topology/builder.hpp"

namespace mstc::topology {

struct StretchReport {
  /// max over connected pairs of d_logical(u,v) / d_original(u,v).
  double max_stretch = 1.0;
  /// mean of the same ratio over connected pairs.
  double mean_stretch = 1.0;
  /// Pairs connected in the original but not the logical topology (a
  /// nonzero count means the logical graph is not a spanner at all).
  std::size_t broken_pairs = 0;
};

/// Distance (or, with pre-weighted graphs, energy) stretch of `logical`
/// relative to `original`. O(n * (E log n)) — fine for n <= a few hundred.
[[nodiscard]] StretchReport stretch_ratio(const graph::Graph& original,
                                          const graph::Graph& logical);

/// Coverage-based interference of one link (u, v): the number of nodes
/// within distance |uv| of u or of v (they are disturbed whenever the link
/// is used). The interference of a topology is the maximum over its links
/// (Burkhart et al.).
[[nodiscard]] std::size_t link_interference(
    std::span<const geom::Vec2> positions, graph::NodeId u, graph::NodeId v);

struct InterferenceReport {
  std::size_t max_interference = 0;
  double mean_interference = 0.0;
};

[[nodiscard]] InterferenceReport interference(
    std::span<const geom::Vec2> positions, const graph::Graph& topology);

}  // namespace mstc::topology
