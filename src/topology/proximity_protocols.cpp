// RNG-based and Gabriel-graph protocols (link-removal condition 1).
#include "geom/predicates.hpp"
#include "topology/protocol.hpp"

namespace mstc::topology {

void RngProtocol::select(const ViewGraph& view,
                         std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = view.node_count();
  for (std::size_t v = 1; v < n; ++v) {
    const CostKey direct = view.cost_min(0, v);
    bool removed = false;
    for (std::size_t w = 1; w < n && !removed; ++w) {
      if (w == v) continue;
      // Owner-row test first: the (w, v) link is evaluated on first read
      // (ViewGraph::assign), and most witnesses fail here without it.
      if (!view.has_link(0, w) || !(direct > view.cost_max(0, w))) continue;
      // A floor past the direct cost fails the (w, v) test unevaluated
      // (cost_max >= floor); an equal one may still win the id tie-break.
      if (view.cost_floor(w, v) > direct.value) continue;
      removed = view.has_link(w, v) && direct > view.cost_max(w, v);
    }
    if (!removed) out.push_back(v);
  }
}

void GabrielProtocol::select(const ViewGraph& view,
                             std::vector<std::size_t>& out) const {
  // Geometric witness test on representative positions, guarded by the
  // cost-interval condition so that interval views remove conservatively:
  // a removal needs the witness inside the Gabriel disk *and* both witness
  // links certainly cheaper than the direct link.
  out.clear();
  const std::size_t n = view.node_count();
  const geom::Vec2 u = view.representative(0);
  for (std::size_t v = 1; v < n; ++v) {
    const geom::Vec2 pv = view.representative(v);
    const CostKey direct = view.cost_min(0, v);
    bool removed = false;
    for (std::size_t w = 1; w < n && !removed; ++w) {
      if (w == v) continue;
      // Owner-row and disk tests before the lazily evaluated (w, v) link.
      if (!view.has_link(0, w) || !(direct > view.cost_max(0, w))) continue;
      removed = geom::in_gabriel_disk(u, pv, view.representative(w)) &&
                view.has_link(w, v) && direct > view.cost_max(w, v);
    }
    if (!removed) out.push_back(v);
  }
}

}  // namespace mstc::topology
