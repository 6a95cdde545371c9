#include "geom/filter.hpp"

namespace mstc::geom {

const char* filter_backend_name() noexcept { return "scalar"; }

// mstc:hot — one call per medium query / snapshot node
void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] == skip) continue;
    if (distance_sq(origin, Vec2{xs[i], ys[i]}) <= range_sq) {
      out.push_back(ids[i]);
    }
  }
}

// mstc:hot — the snapshot physical-degree count
std::size_t count_within_range(const double* xs, const double* ys,
                               std::size_t count, Vec2 origin,
                               double range_sq) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (distance_sq(origin, Vec2{xs[i], ys[i]}) <= range_sq) ++accepted;
  }
  return accepted;
}

}  // namespace mstc::geom
