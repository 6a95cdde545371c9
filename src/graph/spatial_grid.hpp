// Uniform spatial hash grid for fixed-radius neighbor queries.
//
// The medium and topology builders repeatedly ask "which nodes are within
// range r of p?". A cell size equal to the query radius bounds the search
// to the 3x3 cell neighborhood, turning the O(n^2) scan into O(n + k).
//
// Ordering guarantee: query() emits indices in strictly ascending order.
// sim::Medium relies on this to produce receiver sets that are
// bit-identical to a brute-force ascending scan (see docs/PERFORMANCE.md),
// so it is a documented contract, not an implementation accident; the unit
// tests assert it without sorting the output first.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace mstc::graph {

/// Fleet size below which the medium and the snapshot measurement scan
/// every node instead of building a SpatialGrid: under ~150 nodes the
/// build costs more than the grid prunes (see docs/PERFORMANCE.md and the
/// BENCH_medium.json n = 100 row). Results are bit-identical on both sides
/// of the crossover.
inline constexpr std::size_t kGridMinNodes = 150;

class SpatialGrid {
 public:
  /// Empty grid over no points; rebuild() before querying.
  SpatialGrid();

  /// Builds the grid over `positions` with cells of `cell_size` meters.
  /// cell_size should be >= the typical query radius for best performance
  /// (queries with larger radii are still correct, just slower).
  SpatialGrid(std::span<const geom::Vec2> positions, double cell_size);

  /// Rebuilds the grid over a new point set in place, reusing the CSR
  /// arrays' capacity. Repeated rebuilds over same-sized fleets allocate
  /// nothing once the buffers have grown to the fleet size — the medium
  /// rebuilds its index every time mobility slack exceeds its threshold,
  /// so this is a hot maintenance path.
  void rebuild(std::span<const geom::Vec2> positions, double cell_size);

  /// Indices of all points within `radius` of `center` (inclusive),
  /// appended to `out` (cleared first) in ascending index order.
  /// Self-inclusion is the caller's concern: a point at distance 0 is
  /// reported.
  void query(geom::Vec2 center, double radius,
             std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t point_count() const noexcept {
    return positions_.size();
  }

 private:
  [[nodiscard]] std::size_t cell_index(long cx, long cy) const noexcept;

  std::vector<geom::Vec2> positions_;
  double cell_size_ = 1.0;
  long min_cx_ = 0;
  long min_cy_ = 0;
  long cols_ = 1;
  long rows_ = 1;
  // CSR layout: points of cell c are order_[start_[c] .. start_[c+1]).
  // Within a cell, order_ holds ascending indices (counting-sort fill in
  // index order); query() merges cells and restores global ascending order.
  std::vector<std::size_t> start_;
  std::vector<std::size_t> order_;
  // Rebuild scratch (per-point cell ids, per-cell write cursors), kept as
  // members so rebuild() is allocation-free at steady state.
  std::vector<std::size_t> cell_scratch_;
  std::vector<std::size_t> cursor_scratch_;
};

}  // namespace mstc::graph
