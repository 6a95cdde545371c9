#include "graph/spatial_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mstc::graph {

SpatialGrid::SpatialGrid() { start_.assign(2, 0); }

SpatialGrid::SpatialGrid(std::span<const geom::Vec2> positions,
                         double cell_size) {
  rebuild(positions, cell_size);
}

void SpatialGrid::rebuild(std::span<const geom::Vec2> positions,
                          double cell_size) {
  cell_size_ = cell_size > 0.0 ? cell_size : 1.0;
  min_cx_ = 0;
  min_cy_ = 0;
  cols_ = 1;
  rows_ = 1;
  order_.clear();
  xs_.clear();
  ys_.clear();
  if (positions.empty()) {
    start_.assign(2, 0);
    return;
  }
  double min_x = positions[0].x, max_x = positions[0].x;
  double min_y = positions[0].y, max_y = positions[0].y;
  for (const auto& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  min_cx_ = static_cast<long>(std::floor(min_x / cell_size_));
  min_cy_ = static_cast<long>(std::floor(min_y / cell_size_));
  cols_ = static_cast<long>(std::floor(max_x / cell_size_)) - min_cx_ + 1;
  rows_ = static_cast<long>(std::floor(max_y / cell_size_)) - min_cy_ + 1;

  // Cap the table at O(n) cells: a cell size far below the mean node
  // spacing only multiplies the cells each query must walk (and, for a
  // degenerate cell size, the allocation below) without shrinking any
  // candidate set. Computed in double first — a tiny cell size over a
  // large span overflows the long product.
  const double requested =
      static_cast<double>(cols_) * static_cast<double>(rows_);
  const double cap = static_cast<double>(std::max<std::size_t>(
      4 * positions.size(), std::size_t{64}));
  if (requested > cap) {
    cell_size_ *= std::sqrt(requested / cap);
    min_cx_ = static_cast<long>(std::floor(min_x / cell_size_));
    min_cy_ = static_cast<long>(std::floor(min_y / cell_size_));
    cols_ = static_cast<long>(std::floor(max_x / cell_size_)) - min_cx_ + 1;
    rows_ = static_cast<long>(std::floor(max_y / cell_size_)) - min_cy_ + 1;
  }

  const std::size_t cells = static_cast<std::size_t>(cols_ * rows_);
  cell_scratch_.resize(positions.size());
  start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const long cx = static_cast<long>(std::floor(positions[i].x / cell_size_));
    const long cy = static_cast<long>(std::floor(positions[i].y / cell_size_));
    cell_scratch_[i] = cell_index(cx, cy);
    ++start_[cell_scratch_[i] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) start_[c + 1] += start_[c];
  order_.resize(positions.size());
  xs_.resize(positions.size());
  ys_.resize(positions.size());
  cursor_scratch_.assign(start_.begin(), start_.end() - 1);
  // Filling in ascending i keeps every cell's slice of order_ ascending.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::size_t k = cursor_scratch_[cell_scratch_[i]]++;
    order_[k] = i;
    xs_[k] = positions[i].x;
    ys_[k] = positions[i].y;
  }
}

std::size_t SpatialGrid::cell_index(long cx, long cy) const noexcept {
  const long col = std::clamp(cx - min_cx_, 0L, cols_ - 1);
  const long row = std::clamp(cy - min_cy_, 0L, rows_ - 1);
  return static_cast<std::size_t>(row * cols_ + col);
}

// mstc:hot — runs once per grid-served Hello broadcast; fills the
// caller-owned out buffer
void SpatialGrid::query(geom::Vec2 center, double radius,
                        std::vector<std::size_t>& out) const {
  // The cell span below casts radius / cell_size_ to long.
  assert(std::isfinite(radius));
  out.clear();
  if (order_.empty()) return;
  const double r_sq = radius * radius;
  const long span = static_cast<long>(std::ceil(radius / cell_size_));
  const long ccx = static_cast<long>(std::floor(center.x / cell_size_));
  const long ccy = static_cast<long>(std::floor(center.y / cell_size_));
  const long lo_cx = std::max(ccx - span, min_cx_);
  const long hi_cx = std::min(ccx + span, min_cx_ + cols_ - 1);
  const long lo_cy = std::max(ccy - span, min_cy_);
  const long hi_cy = std::min(ccy + span, min_cy_ + rows_ - 1);
  if (lo_cx > hi_cx || lo_cy > hi_cy) return;
  // The block's cells of one grid row are adjacent in the CSR order, so
  // each row is one contiguous run [start_[first], start_[last + 1]).
  std::size_t scanned = 0;
  for (long cy = lo_cy; cy <= hi_cy; ++cy) {
    scanned +=
        start_[cell_index(hi_cx, cy) + 1] - start_[cell_index(lo_cx, cy)];
  }
  // Sized for every scanned point, so the scan writes each one and counts
  // only the hits: no branch on the distance test.
  out.resize(scanned);
  std::size_t* const hits = out.data();
  std::size_t count = 0;
  for (long cy = lo_cy; cy <= hi_cy; ++cy) {
    const std::size_t end = start_[cell_index(hi_cx, cy) + 1];
    for (std::size_t k = start_[cell_index(lo_cx, cy)]; k < end; ++k) {
      // geom::distance_sq(center, point), term for term.
      const double dx = center.x - xs_[k];
      const double dy = center.y - ys_[k];
      hits[count] = order_[k];
      count += dx * dx + dy * dy <= r_sq ? 1 : 0;
    }
  }
  out.resize(count);
}

}  // namespace mstc::graph
