#include "core/effective.hpp"

#include <cassert>

namespace mstc::core {

bool can_deliver(const NodeController& from, const NodeController& to,
                 double distance) {
  if (distance > from.extended_range()) return false;
  return accepts(from, to);
}

graph::Graph effective_snapshot(std::span<const NodeController> controllers,
                                std::span<const geom::Vec2> positions) {
  assert(controllers.size() == positions.size());
  const std::size_t n = controllers.size();
  graph::Graph g(n);
  // Cold path (tests, one-off analysis): local scratch is fine here. The
  // per-tick measurement loop goes through metrics::measure_snapshot's
  // reusable SnapshotScratch instead of building a Graph at all.
  graph::SpatialGrid grid;
  std::vector<std::size_t> candidates;
  for_each_snapshot_candidates(
      controllers, positions, &grid, candidates,
      [&](std::size_t u, const std::vector<std::size_t>& cand) {
        for (const std::size_t v : cand) {
          if (v <= u) continue;
          if (const std::optional<double> d = effective_link(
                  controllers[u], controllers[v], positions[u], positions[v])) {
            g.add_edge(u, v, *d);
          }
        }
      });
  return g;
}

}  // namespace mstc::core
