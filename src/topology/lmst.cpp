// Local-MST protocol (link-removal condition 3).
//
// Remove (u, v) when the view contains a u-v path whose every link is
// cheaper than (u, v). By the cycle property this keeps exactly the edges
// incident to u in the MST of u's local view, i.e. Li-Hou-Sha LMST. The
// bottleneck formulation below handles interval costs directly: a path
// link counts as "certainly cheaper" when its cost_max is below the direct
// link's cost_min (enhanced condition 3).
//
// One Prim-style scan decides every neighbor, O(d^2) per select: it
// settles bottleneck labels B (over owner paths, the least largest
// cost_max CostKey), and v is removed iff B(v) < cost_min(u, v), which
// holds exactly when some path's links all undercut cost_min(u, v). The
// direct link never qualifies (cost_max >= cost_min), so B may route over
// it. The scan only compares CostKeys (pinned to the per-neighbor search
// by select_reference_test.cpp).
#include <algorithm>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

// mstc:hot — one O(d^2) pass per select; all state lives in member scratch
void LmstProtocol::select(const ViewGraph& view,
                          std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = view.node_count();
  if (n <= 1) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr NodeId kLast = std::numeric_limits<NodeId>::max();
  // kUnreached sorts after every link, so unreached members are kept; the
  // owner's empty path sorts before every link.
  constexpr CostKey kUnreached{kInf, kLast, kLast};
  bottleneck_.assign(n, kUnreached);
  settled_.assign(n, 0);
  bottleneck_[0] = CostKey{-kInf, 0, 0};
  for (std::size_t a = 0;;) {
    settled_[a] = 1;
    for (std::size_t b = 1; b < n; ++b) {
      if (settled_[b] || !view.has_link(a, b)) continue;
      bottleneck_[b] = std::min(
          bottleneck_[b], std::max(bottleneck_[a], view.cost_max(a, b)));
    }
    a = 0;
    for (std::size_t b = 1; b < n; ++b) {
      if (!settled_[b] && bottleneck_[b] < kUnreached &&
          (a == 0 || bottleneck_[b] < bottleneck_[a])) {
        a = b;
      }
    }
    if (a == 0) break;
  }
  for (std::size_t v = 1; v < n; ++v) {
    if (!(bottleneck_[v] < view.cost_min(0, v))) out.push_back(v);
  }
}

}  // namespace mstc::topology
