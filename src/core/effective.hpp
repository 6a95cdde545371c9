// Effective-topology snapshots (strict connectivity).
//
// Given every node's current controller state and ground-truth positions,
// builds the graph a "god's-eye" snapshot would see:
//  - without physical neighbors: effective links are mutual logical links
//    covered by both extended ranges (the paper's E'');
//  - with physical neighbors: any pair covered by both extended ranges
//    communicates bidirectionally, logical or not.
//
// Link enumeration is routed through graph::SpatialGrid, whatever the
// fleet size, under a bit-identity contract: grid queries with a
// conservatively padded radius produce a guaranteed superset of every node
// the exact range predicates can accept, sorted into ascending index order,
// and the caller re-applies the exact predicates — so the grid and the
// brute-force scan (the null-grid reference arm of
// for_each_snapshot_candidates) evaluate identical predicates on identical
// values in identical order (identity argument in docs/PERFORMANCE.md,
// differential suite in tests/metrics/).
#pragma once

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "graph/graph.hpp"
#include "graph/spatial_grid.hpp"

namespace mstc::core {

/// Snapshot of the effective topology. `positions[i]` is the ground-truth
/// position of controllers[i]'s node at the snapshot time.
[[nodiscard]] graph::Graph effective_snapshot(
    std::span<const NodeController> controllers,
    std::span<const geom::Vec2> positions);

/// Directed usability test for one transmission: can `from` deliver a data
/// packet to `to` right now? Requires `to` within `from`'s extended range
/// and either `to` logical at `from` or the physical-neighbor enhancement
/// active at the *receiver* side (the receiver decides whether to drop).
[[nodiscard]] bool can_deliver(const NodeController& from,
                               const NodeController& to, double distance);

/// The distance-free half of can_deliver: `to` takes `from`'s packets when
/// it is logical at `from` or runs the physical-neighbor enhancement.
[[nodiscard]] inline bool accepts(const NodeController& from,
                                  const NodeController& to) {
  return to.config().accept_physical_neighbors || from.is_logical(to.id());
}

/// The effective link between u (at `pu`) and v (at `pv`): its length
/// d = geom::distance(pu, pv) when can_deliver(u, v, d) &&
/// can_deliver(v, u, d), nullopt otherwise. The same conjunction with the
/// membership tests first, each predicate evaluated once, so the distance
/// is computed only for pairs both ends accept.
[[nodiscard]] inline std::optional<double> effective_link(
    const NodeController& u, const NodeController& v, geom::Vec2 pu,
    geom::Vec2 pv) {
  if (!accepts(u, v) || !accepts(v, u)) return std::nullopt;
  const double d = geom::distance(pu, pv);
  if (d > u.extended_range() || d > v.extended_range()) return std::nullopt;
  return d;
}

/// Grid query radius that conservatively covers `range` against the
/// floating-point rounding of both exact predicates the snapshot layer
/// re-applies afterwards: distance_sq(u, v) <= range * range (physical
/// degree) and hypot-based distance(u, v) <= range (can_deliver). Each
/// predicate's accepted set is contained in
///   { v : fl(distance_sq) <= range^2 * (1 + 7eps) }
/// while the grid accepts everything with fl(distance_sq) <= fl(rp^2),
/// rp = range * (1 + 8eps), and fl(rp^2) >= range^2 * (1 + 12eps) — a
/// strict superset either way (docs/PERFORMANCE.md works the bound).
[[nodiscard]] constexpr double conservative_query_radius(
    double range) noexcept {
  return range * (1.0 + 8.0 * std::numeric_limits<double>::epsilon());
}

/// Candidate-enumeration harness shared by effective_snapshot and
/// metrics::measure_snapshot: for each node u = 0..n-1 in ascending order,
/// produces an ascending candidate index set that is a guaranteed superset
/// of every node the exact range predicates can accept for u, then invokes
/// visit(u, candidates). Candidates may include u itself; callers filter.
///
/// With `grid` null every candidate set is 0..n-1 — the brute-force scan,
/// byte-identical to the pre-grid nested loop. Otherwise `grid` is rebuilt
/// over `positions` (cell size = largest padded range) and queried with
/// conservative_query_radius(extended_range(u)); sorting the grid's
/// cell-order hits keeps the visit order identical to the brute path, so
/// exact predicate re-application yields bit-identical results.
template <typename Visit>
void for_each_snapshot_candidates(std::span<const NodeController> controllers,
                                  std::span<const geom::Vec2> positions,
                                  graph::SpatialGrid* grid,
                                  std::vector<std::size_t>& candidates,
                                  Visit&& visit) {
  const std::size_t n = controllers.size();
  if (grid == nullptr) {
    candidates.resize(n);
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    for (std::size_t u = 0; u < n; ++u) visit(u, candidates);
    return;
  }
  double cell = 0.0;
  for (const NodeController& c : controllers) {
    cell = std::max(cell, conservative_query_radius(c.extended_range()));
  }
  grid->rebuild(positions, cell);  // cell == 0 is clamped by rebuild()
  for (std::size_t u = 0; u < n; ++u) {
    grid->query(positions[u],
                conservative_query_radius(controllers[u].extended_range()),
                candidates);
    std::sort(candidates.begin(), candidates.end());
    visit(u, candidates);
  }
}

}  // namespace mstc::core
