// Graph algorithms shared by topology builders and metrics:
// connectivity, components, MST, shortest paths.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace mstc::graph {

/// Component label per node (labels are dense, 0-based, in discovery order).
[[nodiscard]] std::vector<std::size_t> connected_components(const Graph& g);

/// True when the graph has exactly one connected component (the empty graph
/// and the single-node graph count as connected).
[[nodiscard]] bool is_connected(const Graph& g);

/// Fraction of ordered node pairs (u, v), u != v, that are connected;
/// 1.0 for a connected graph, and the paper's "strict connectivity ratio"
/// for a snapshot. Returns 1.0 for graphs with fewer than two nodes.
[[nodiscard]] double pair_connectivity_ratio(const Graph& g);

/// Same ratio over an explicit undirected link list, without materializing
/// a Graph: unites each link in `scratch` and sums s*(s-1) over component
/// sizes. The ratio is a pure function of the component partition, so this
/// returns the exact double pair_connectivity_ratio(Graph) would for the
/// graph those links induce — the snapshot fast path and routing::epidemic
/// rely on that bit-identity. `scratch` is reset to node_count sets.
[[nodiscard]] double pair_connectivity_ratio(
    std::size_t node_count, std::span<const std::pair<NodeId, NodeId>> links,
    UnionFind& scratch);

/// Set of nodes reachable from `source` (including the source).
[[nodiscard]] std::vector<NodeId> reachable_from(const Graph& g, NodeId source);

/// Vertex connectivity test for small k (supported: 1 <= k <= 3): the graph
/// stays connected after removing any k-1 vertices. Used by the
/// fault-tolerant topology-control extensions (Bahramgiri et al., FLSS).
/// Graphs with <= k vertices count as k-connected iff complete.
[[nodiscard]] bool is_k_connected(const Graph& g, std::size_t k);

/// Smallest node degree; an upper bound on vertex connectivity.
[[nodiscard]] std::size_t min_degree(const Graph& g);

/// Minimum spanning forest via Prim with a binary heap; returns parent[]
/// with parent[root] == root for each component root. Edge weights must be
/// the graph's weights.
[[nodiscard]] std::vector<NodeId> prim_mst_parents(const Graph& g,
                                                   NodeId root = 0);

/// Kruskal MST edge list over an explicit edge set (used by local MST
/// computations where the graph object is never materialized). Ties are
/// broken by (weight, u, v) so the result is unique for distinct weights.
[[nodiscard]] std::vector<EdgeRecord> kruskal_mst(
    std::size_t node_count, std::vector<EdgeRecord> edges);

constexpr double kUnreachable = std::numeric_limits<double>::infinity();

struct ShortestPaths {
  std::vector<double> distance;  ///< kUnreachable when not reachable
  std::vector<NodeId> parent;    ///< parent[source] == source
};

/// Dijkstra from `source` with nonnegative weights.
[[nodiscard]] ShortestPaths dijkstra(const Graph& g, NodeId source);

}  // namespace mstc::graph
