// Fixture: the same all-pairs scan as bad_all_pairs.cpp, but a deliberate
// brute-force baseline carrying the suppression escape hatch — and loops
// the rule must NOT flag (a completed one-line loop above an index loop,
// and a range-for pair).
#include <cstddef>
#include <vector>

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

std::size_t brute_baseline(const std::vector<Vec2>& positions,
                           double range_sq) {
  std::size_t close = 0;
  // Differential-test oracle: the grid path is byte-compared against this.
  for (std::size_t u = 0; u < positions.size(); ++u) {
    // mstc-tidy: allow(all-pairs-scan)
    for (std::size_t v = u + 1; v < positions.size(); ++v) {
      const double dx = positions[u].x - positions[v].x;
      const double dy = positions[u].y - positions[v].y;
      if (dx * dx + dy * dy <= range_sq) ++close;
    }
  }
  return close;
}

double sequential_loops_are_fine(const std::vector<Vec2>& positions) {
  std::vector<double> prefix(positions.size() + 1, 0.0);
  // A completed one-line loop directly above an index loop is NOT an
  // enclosing loop; the rule must stay quiet here.
  for (std::size_t i = 0; i < positions.size(); ++i) prefix[i + 1] = 1.0;
  double total = 0.0;
  for (std::size_t u = 0; u < positions.size(); ++u) {
    total += positions[u].x + prefix[u];
  }
  // Range-fors carry no index pair and are exempt even when nested.
  for (const Vec2& a : positions) {
    for (const Vec2& b : positions) {
      total += a.x * b.y;
    }
  }
  return total;
}
