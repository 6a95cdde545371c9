// Uniform spatial hash grid for fixed-radius neighbor queries.
//
// The medium and topology builders repeatedly ask "which nodes are within
// range r of p?". A cell size equal to the query radius bounds the search
// to the 3x3 cell neighborhood, turning the O(n^2) scan into O(n + k).
// sim::Medium and the snapshot measurement build one for every fleet,
// however small; their brute-force scans remain only as the reference
// arm that differential tests and benches compare against.
//
// Memory layout: the points are stored in cell order (a CSR table of
// row-major cells), coordinates in two arrays parallel to their indices.
// The cells of one grid row are adjacent in that order, so a query scans
// each row of its block as one contiguous run and appends hits without a
// branch.
//
// Ordering: query() emits hits in cell order — rows ascending, cells left
// to right within a row, ascending index within a cell — not in index
// order. Callers that need ascending indices (sim::Medium's receiver sets
// and link lists, the snapshot candidate sets) sort what they keep, which
// is cheaper than sorting every hit (see docs/PERFORMANCE.md, "The Hello
// path at n = 10 000"). The medium re-checks its candidates against the
// exact range the way query() keeps hits: it writes each id and advances
// its count by the predicate, without a branch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace mstc::graph {

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

  /// Indices of all points within `radius` (finite) of `center`
  /// (inclusive), each once, written to `out` (cleared first) in cell
  /// order. Self-inclusion is the caller's concern: a point at distance 0
  /// is reported.
  void query(geom::Vec2 center, double radius,
             std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t point_count() const noexcept {
    return order_.size();
  }

 private:
  [[nodiscard]] std::size_t cell_index(long cx, long cy) const noexcept;

  double cell_size_ = 1.0;
  long min_cx_ = 0;
  long min_cy_ = 0;
  long cols_ = 1;
  long rows_ = 1;
  // CSR layout: points of cell c are order_[start_[c] .. start_[c+1]),
  // ascending within a cell (counting-sort fill in index order); xs_[k] and
  // ys_[k] are the coordinates of point order_[k].
  std::vector<std::size_t> start_;
  std::vector<std::size_t> order_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  // Rebuild scratch (per-point cell ids, per-cell write cursors), kept as
  // members so rebuild() is allocation-free at steady state.
  std::vector<std::size_t> cell_scratch_;
  std::vector<std::size_t> cursor_scratch_;
};

}  // namespace mstc::graph
