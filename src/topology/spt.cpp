// Minimum-energy / SPT protocol (link-removal condition 2).
//
// Remove (u, v) when a multi-hop path (u, w1, ..., wk, v) exists with
// c(u,v) > c(u,w1) + ... + c(wk,v). With energy cost d^alpha this is
// Rodoplu-Meng / Li-Halpern minimum-energy neighbor selection restricted
// to 1-hop information: keeping exactly the root's children in the local
// shortest-path tree. Interval views use cost_max on path links and
// cost_min on the direct link (enhanced condition 2).
//
// One single-source pass decides every neighbor, O(d^2) per select: a
// dense Dijkstra from the owner over the unmasked view gives labels D, and
// v is removed iff D(v) < cost_min(u, v). That is exactly the condition
// with (u, v) masked: only a path starting with (u, v) can beat the masked
// optimum, and it already costs cost_max(u, v) >= cost_min(u, v), so a
// label below the direct cost ends in a relay w (not the owner, not v)
// with D(w) + cost_max(w, v) < cost_min(u, v). IEEE addition of
// non-negative costs is monotone, so the labels that matter carry the
// same bits (proofs in docs/PERFORMANCE.md, "Single-source selection" and
// "Pairs pruned by a cost floor"; pinned by select_reference_test.cpp).
//
// A link is evaluated only when its cost floor (ViewGraph::cost_floor)
// could still lower a label: a relaxation the floor rules out is a no-op,
// so most neighbor pairs of a large view are never resolved.
#include <algorithm>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

// mstc:hot — one O(d^2) pass per select; all state lives in `scratch`
void spt_children(const ViewGraph& view, std::span<const char> inside,
                  SptScratch& scratch, std::vector<std::size_t>& out) {
  out.clear();
  const std::size_t n = view.node_count();
  if (n <= 1) return;
  const auto member = [&](std::size_t b) {
    return inside.empty() || inside[b] != 0;
  };
  // Labels at or past the largest direct cost can witness no removal, so
  // the search stops there.
  double bound = 0.0;
  for (std::size_t v = 1; v < n; ++v) {
    if (member(v)) bound = std::max(bound, view.cost_min(0, v).value);
  }
  std::vector<double>& dist = scratch.dist;
  std::vector<char>& settled = scratch.settled;
  dist.assign(n, std::numeric_limits<double>::infinity());
  settled.assign(n, 0);
  dist[0] = 0.0;
  // Dense Dijkstra with pessimistic (cost_max) link costs: settle the
  // owner, then repeatedly the unsettled member with the smallest label.
  for (std::size_t a = 0;;) {
    settled[a] = 1;
    for (std::size_t b = 1; b < n; ++b) {
      if (settled[b] || !member(b)) continue;
      // cost_max >= cost_min >= floor, and a rounded sum never drops when
      // a term grows: a link whose floor cannot undercut b's label cannot.
      if (!(dist[a] + view.cost_floor(a, b) < dist[b])) continue;
      if (!view.has_link(a, b)) continue;
      dist[b] = std::min(dist[b], dist[a] + view.cost_max(a, b).value);
    }
    a = 0;
    for (std::size_t b = 1; b < n; ++b) {
      if (!settled[b] && dist[b] < bound && (a == 0 || dist[b] < dist[a])) {
        a = b;
      }
    }
    if (a == 0) break;
  }
  // Strict inequality: equal-cost detours keep the link (conservative).
  // Non-members keep an infinite label and are never output.
  for (std::size_t v = 1; v < n; ++v) {
    if (member(v) && !(dist[v] < view.cost_min(0, v).value)) out.push_back(v);
  }
}

// mstc:hot — the whole view through spt_children
void SptProtocol::select(const ViewGraph& view,
                         std::vector<std::size_t>& out) const {
  spt_children(view, {}, scratch_, out);
}

}  // namespace mstc::topology
