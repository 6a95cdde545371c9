#include "topology/view_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace mstc::topology {

namespace {

/// Conservative squared-distance rejection threshold for the pre-filter in
/// resolve(). fl(dx*dx + dy*dy) carries at most ~3 ulp (~7e-16) relative
/// error and std::hypot at most a few ulps, so the 1e-12 relative margin
/// exceeds the combined rounding error by three orders of magnitude: any
/// pair with fl(d^2) > normal_range^2 * (1 + 1e-12) certainly has
/// hypot(dx, dy) > normal_range, i.e. the exact predicate would have
/// rejected it too (proof sketch in docs/PERFORMANCE.md). Pairs inside the
/// margin fall through to the exact check, so results are byte-identical.
constexpr double kRejectMargin = 1.0 + 1e-12;

}  // namespace

ViewGraph::ViewGraph(NodeId owner_id, std::size_t neighbor_count) {
  reset(owner_id, neighbor_count);
}

void ViewGraph::prepare(std::size_t nodes, State initial) {
  const std::size_t pairs = nodes * nodes;
  ids_.resize(nodes);
  state_.assign(pairs, initial);
  // High-water sizing: never shrink, so a view that grows back does not
  // value-initialise entries again. Every read resolves a pair, and so
  // overwrites its values, before it reads them.
  if (cost_min_.size() < pairs) {
    cost_min_.resize(pairs);
    cost_max_.resize(pairs);
    distance_min_.resize(pairs);
    distance_max_.resize(pairs);
  }
  links_evaluated_ = 0;
}

void ViewGraph::reset(NodeId owner_id, std::size_t neighbor_count) {
  const std::size_t nodes = neighbor_count + 1;
  prepare(nodes, kAbsent);
  ids_[0] = owner_id;
  positions_.assign(nodes, geom::Vec2{});
  first_.resize(nodes + 1);
  std::iota(first_.begin(), first_.end(), std::size_t{0});
  cost_ = nullptr;
}

// mstc:hot — runs once per selection refresh over ~density members
void ViewGraph::assign(
    std::span<const NodeId> ids,
    std::span<const std::span<const VersionedPosition>> versions,
    double normal_range, const CostModel& cost) {
  assert(!ids.empty() && ids.size() == versions.size());
  const std::size_t nodes = ids.size();
  prepare(nodes, kDeferred);
  std::copy(ids.begin(), ids.end(), ids_.begin());
  positions_.clear();
  first_.resize(nodes + 1);
  for (std::size_t i = 0; i < nodes; ++i) {
    assert(!versions[i].empty());
    first_[i] = positions_.size();
    for (const VersionedPosition& record : versions[i]) {
      positions_.push_back(record.position);
    }
  }
  first_[nodes] = positions_.size();
  cost_ = &cost;
  normal_range_ = normal_range;
  reject_sq_ = normal_range * normal_range * kRejectMargin;
  for (std::size_t i = 0; i < nodes; ++i) state_[flat(i, i)] = kAbsent;
  for (std::size_t j = 1; j < nodes; ++j) resolve(0, j);
}

// mstc:hot — runs once per pair a selection reads (and per owner-row pair
// in assign)
ViewGraph::State ViewGraph::resolve(std::size_t i, std::size_t j) const {
  assert(i != j && cost_ != nullptr);
  ++links_evaluated_;
  // Canonical order: the pair is evaluated as (a, b) with a < b whichever
  // orientation was read first.
  const std::size_t a = std::min(i, j);
  const std::size_t b = std::max(i, j);
  const std::span<const geom::Vec2> from = positions(a);
  const std::span<const geom::Vec2> to = positions(b);
  const auto absent = [&] {
    state_[flat(a, b)] = kAbsent;
    state_[flat(b, a)] = kAbsent;
    return kAbsent;
  };
  if (from.size() == 1 && to.size() == 1) {
    // Point pair (latest / versioned views): d_min == d_max, so the
    // distance, the cost-model call and the CostKey are each computed
    // once — bit-identical to the interval sweep below, which would
    // evaluate them twice on equal inputs.
    // Squared-distance pre-filter: skips the libm hypot for pairs that are
    // certainly out of range (see kRejectMargin). Never applied to the
    // owner row — owner-neighbor links exist regardless of distance.
    if (a != 0 && geom::distance_sq(from[0], to[0]) > reject_sq_) {
      return absent();
    }
    const double d = geom::distance(from[0], to[0]);
    if (a != 0 && d > normal_range_) return absent();
    const CostKey key = CostKey::make(cost_->cost(d), ids_[a], ids_[b]);
    link(a, b, d, d, key, key);
    return kLinked;
  }
  // Interval pair (weak consistency): pre-filter on the cheap squared
  // distances first; only pairs that might be in range pay for the exact
  // hypot sweep.
  if (a != 0) {
    double max_sq = 0.0;
    for (const geom::Vec2 p : from) {
      for (const geom::Vec2 q : to) {
        max_sq = std::max(max_sq, geom::distance_sq(p, q));
      }
    }
    if (max_sq > reject_sq_) return absent();
  }
  double d_min = std::numeric_limits<double>::infinity();
  double d_max = 0.0;
  for (const geom::Vec2 p : from) {
    for (const geom::Vec2 q : to) {
      const double d = geom::distance(p, q);
      d_min = std::min(d_min, d);
      d_max = std::max(d_max, d);
    }
  }
  // Owner-neighbor links exist by virtue of the received Hello;
  // neighbor-neighbor links must certainly be within range.
  if (a != 0 && d_max > normal_range_) return absent();
  link(a, b, d_min, d_max, CostKey::make(cost_->cost(d_min), ids_[a], ids_[b]),
       CostKey::make(cost_->cost(d_max), ids_[a], ids_[b]));
  return kLinked;
}

// mstc:hot — one squared distance per version combination, per pair a
// protocol prunes or reads
double ViewGraph::deferred_floor(std::size_t i, std::size_t j) const {
  // Deferred pairs are never on the owner row (assign evaluates it), so
  // resolve would apply its reject: the same squared distances in the same
  // canonical order give the same verdict.
  const std::span<const geom::Vec2> from = positions(std::min(i, j));
  const std::span<const geom::Vec2> to = positions(std::max(i, j));
  if (from.size() == 1 && to.size() == 1) {
    const double d_sq = geom::distance_sq(from[0], to[0]);
    if (d_sq > reject_sq_) return std::numeric_limits<double>::infinity();
    return cost_->cost_floor(d_sq);
  }
  double min_sq = std::numeric_limits<double>::infinity();
  double max_sq = 0.0;
  for (const geom::Vec2 p : from) {
    for (const geom::Vec2 q : to) {
      const double d_sq = geom::distance_sq(p, q);
      min_sq = std::min(min_sq, d_sq);
      max_sq = std::max(max_sq, d_sq);
    }
  }
  if (max_sq > reject_sq_) return std::numeric_limits<double>::infinity();
  // The combination that gives d_min has a squared distance >= min_sq.
  return cost_->cost_floor(min_sq);
}

void ViewGraph::set_link(std::size_t i, std::size_t j, double dist_min,
                         double dist_max, CostKey c_min, CostKey c_max) {
  link(i, j, dist_min, dist_max, c_min, c_max);
}

void ViewGraph::link(std::size_t i, std::size_t j, double dist_min,
                     double dist_max, CostKey c_min, CostKey c_max) const {
  assert(i != j);
  assert(dist_min <= dist_max);
  assert(c_min <= c_max);
  for (const auto& [a, b] : {std::pair{i, j}, std::pair{j, i}}) {
    const std::size_t k = flat(a, b);
    state_[k] = kLinked;
    distance_min_[k] = dist_min;
    distance_max_[k] = dist_max;
    cost_min_[k] = c_min;
    cost_max_[k] = c_max;
  }
}

ViewGraph make_consistent_view(std::span<const geom::Vec2> positions,
                               std::span<const NodeId> ids,
                               std::size_t owner_index, double normal_range,
                               const CostModel& cost) {
  assert(positions.size() == ids.size());
  assert(owner_index < positions.size());
  const geom::Vec2 origin = positions[owner_index];
  const double range_sq = normal_range * normal_range;

  std::vector<std::size_t> members;  // indices into positions/ids
  members.push_back(owner_index);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i == owner_index) continue;
    if (geom::distance_sq(origin, positions[i]) <= range_sq) {
      members.push_back(i);
    }
  }

  ViewGraph view(ids[owner_index], members.size() - 1);
  for (std::size_t v = 0; v < members.size(); ++v) {
    view.set_id(v, ids[members[v]]);
    view.set_representative(v, positions[members[v]]);
  }
  // Pairs over one node's *local view* (~density members), not the fleet —
  // quadratic in neighborhood size by design, like the protocols that
  // consume the view.
  for (std::size_t a = 0; a < members.size(); ++a) {
    // mstc-tidy: allow(all-pairs-scan)
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const double d =
          geom::distance(positions[members[a]], positions[members[b]]);
      if (d <= normal_range) {
        const CostKey key =
            CostKey::make(cost.cost(d), ids[members[a]], ids[members[b]]);
        view.set_link(a, b, d, d, key, key);
      }
    }
  }
  return view;
}

}  // namespace mstc::topology
