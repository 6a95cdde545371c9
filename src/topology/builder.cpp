#include "topology/builder.hpp"

#include <algorithm>
#include <cassert>

namespace mstc::topology {

bool BuiltTopology::selects(NodeId u, NodeId v) const {
  const auto& list = logical_neighbors[u];
  return std::binary_search(list.begin(), list.end(), v);
}

double BuiltTopology::average_range() const {
  if (range.empty()) return 0.0;
  double total = 0.0;
  for (double r : range) total += r;
  return total / static_cast<double>(range.size());
}

double BuiltTopology::average_logical_degree() const {
  const std::size_t n = logical_neighbors.size();
  if (n == 0) return 0.0;
  std::size_t degree_total = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : logical_neighbors[u]) {
      if (selects(v, u)) ++degree_total;  // counted once per direction
    }
  }
  return static_cast<double>(degree_total) / static_cast<double>(n);
}

BuiltTopology build_topology(std::span<const geom::Vec2> positions,
                             double normal_range, const Protocol& protocol,
                             const CostModel& cost) {
  const std::size_t n = positions.size();
  std::vector<NodeId> ids(n);
  for (NodeId u = 0; u < n; ++u) ids[u] = u;

  BuiltTopology result;
  result.logical_neighbors.resize(n);
  result.range.resize(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const ViewGraph view =
        make_consistent_view(positions, ids, u, normal_range, cost);
    const auto chosen = protocol.select(view);
    auto& neighbors = result.logical_neighbors[u];
    neighbors.reserve(chosen.size());
    for (std::size_t index : chosen) {
      neighbors.push_back(view.id(index));
      result.range[u] =
          std::max(result.range[u], view.distance_max(0, index));
    }
    std::sort(neighbors.begin(), neighbors.end());
  }
  return result;
}

graph::Graph original_graph(std::span<const geom::Vec2> positions,
                            double normal_range) {
  graph::Graph g(positions.size());
  const double range_sq = normal_range * normal_range;
  // Cold analysis path (property tests / one-off topology studies), never
  // inside the per-tick loop; keeping the plain scan makes it the oracle
  // other paths are compared against.
  for (NodeId u = 0; u < positions.size(); ++u) {
    // mstc-tidy: allow(all-pairs-scan)
    for (NodeId v = u + 1; v < positions.size(); ++v) {
      const double d_sq = geom::distance_sq(positions[u], positions[v]);
      if (d_sq <= range_sq) g.add_edge(u, v, std::sqrt(d_sq));
    }
  }
  return g;
}

graph::Graph logical_graph(const BuiltTopology& topo,
                           std::span<const geom::Vec2> positions) {
  const std::size_t n = topo.logical_neighbors.size();
  assert(positions.size() == n);
  graph::Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : topo.logical_neighbors[u]) {
      if (u < v && topo.selects(v, u)) {
        g.add_edge(u, v, geom::distance(positions[u], positions[v]));
      }
    }
  }
  return g;
}

graph::Graph effective_graph(const BuiltTopology& topo,
                             std::span<const geom::Vec2> current_positions,
                             double buffer) {
  const std::size_t n = topo.logical_neighbors.size();
  assert(current_positions.size() == n);
  graph::Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : topo.logical_neighbors[u]) {
      if (u >= v || !topo.selects(v, u)) continue;
      const double d =
          geom::distance(current_positions[u], current_positions[v]);
      if (d <= topo.range[u] + buffer && d <= topo.range[v] + buffer) {
        g.add_edge(u, v, d);
      }
    }
  }
  return g;
}

}  // namespace mstc::topology
