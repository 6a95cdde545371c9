// The per-node view graph a topology-control protocol operates on.
//
// A ViewGraph is the owner node plus its 1-hop neighbors, with, for every
// node pair, a link-existence flag and an *interval* cost [cost_min,
// cost_max]. With a single position version per node the interval collapses
// to a point and the protocols implement the paper's original link-removal
// conditions 1-3; with multiple versions (weak consistency, Section 4.2)
// the same code implements the enhanced conditions 1-3.
//
// Neighbor-neighbor pairs are evaluated on first read (assign). Before a
// read, a protocol can ask cost_floor for a lower bound on the pair's cost
// that evaluates nothing, and skip the pair when the bound already decides
// its removal test: SPT, MST and RNG leave most pairs of a large view
// unevaluated that way.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "topology/cost.hpp"

namespace mstc::topology {

/// A position a node advertised in one "Hello" message.
struct VersionedPosition {
  geom::Vec2 position;
  std::uint64_t version = 0;
  double send_time = 0.0;
};

/// Threading: reads resolve deferred pairs in place (see assign), so a
/// view must only be read by one thread at a time, the same contract as
/// Protocol::select's per-instance scratch.
class ViewGraph {
 public:
  /// Empty graph; reset() or assign() must run before any other member.
  ViewGraph() = default;

  /// Node index 0 is the owner; indices 1..neighbor_count are neighbors.
  ViewGraph(NodeId owner_id, std::size_t neighbor_count);

  /// Re-targets the graph to an explicit view of a new owner/size, without
  /// shrinking capacity: every pair starts unlinked, and set_id,
  /// set_representative and set_link fill the view in.
  void reset(NodeId owner_id, std::size_t neighbor_count);

  /// Assembles the view of `ids[0]` from one position list per member
  /// (owner first, each list newest first, none empty). Owner-neighbor
  /// links always exist (the neighbor was heard); a neighbor-neighbor link
  /// exists only when its viewed distance is certainly <= normal_range
  /// under every version combination. Each link's distance interval spans
  /// those combinations, and its cost interval is `cost` at the ends.
  ///
  /// The positions are copied; every neighbor-neighbor pair is deferred
  /// and evaluated on its first has_link / cost_* / distance_* read, then
  /// memoized in both orientations. The owner row, which every protocol
  /// reads, is evaluated here. `cost` must outlive the view's reads. The
  /// value arrays keep their high-water size, so repeated assign cycles on
  /// one instance stop allocating once the largest view has been seen.
  void assign(std::span<const NodeId> ids,
              std::span<const std::span<const VersionedPosition>> versions,
              double normal_range, const CostModel& cost);

  [[nodiscard]] std::size_t node_count() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t neighbor_count() const noexcept {
    return ids_.size() - 1;
  }
  [[nodiscard]] NodeId owner() const noexcept { return ids_[0]; }
  [[nodiscard]] NodeId id(std::size_t index) const noexcept {
    return ids_[index];
  }

  void set_id(std::size_t index, NodeId node_id) noexcept {
    ids_[index] = node_id;
  }
  void set_representative(std::size_t index, geom::Vec2 position) noexcept {
    positions_[first_[index]] = position;
  }
  /// Representative position: the version a geometric rule (Gabriel cone,
  /// Yao sector, CBTC direction) should use — the newest stored one.
  [[nodiscard]] geom::Vec2 representative(std::size_t index) const noexcept {
    return positions_[first_[index]];
  }

  /// Declares a link between view indices i and j with distance interval
  /// [d_min, d_max] and cost interval [c_min, c_max].
  void set_link(std::size_t i, std::size_t j, double distance_min,
                double distance_max, CostKey cost_min, CostKey cost_max);

  // Accessors. The cost and distance of a pair without a link are
  // unspecified: read them only on the owner row or behind has_link.
  [[nodiscard]] bool has_link(std::size_t i, std::size_t j) const {
    return state(i, j) == kLinked;
  }
  [[nodiscard]] CostKey cost_min(std::size_t i, std::size_t j) const {
    return value(cost_min_, i, j);
  }
  [[nodiscard]] CostKey cost_max(std::size_t i, std::size_t j) const {
    return value(cost_max_, i, j);
  }
  [[nodiscard]] double distance_min(std::size_t i, std::size_t j) const {
    return value(distance_min_, i, j);
  }
  [[nodiscard]] double distance_max(std::size_t i, std::size_t j) const {
    return value(distance_max_, i, j);
  }

  /// A lower bound on cost_min(i, j).value that evaluates nothing, +inf
  /// for a pair without a link. An evaluated pair gives its cost_min value
  /// (or +inf). A deferred pair gives +inf when its largest squared
  /// distance over the version combinations is past the reject margin (so
  /// it would be absent), and otherwise CostModel::cost_floor of the
  /// smallest. Never changes pair state or links_evaluated(); a protocol
  /// checks it before a read the floor can already decide.
  [[nodiscard]] double cost_floor(std::size_t i, std::size_t j) const {
    const std::size_t k = flat(i, j);
    switch (state_[k]) {
      case kLinked:
        return cost_min_[k].value;
      case kAbsent:
        return std::numeric_limits<double>::infinity();
      case kDeferred:
        break;
    }
    return deferred_floor(i, j);
  }

  /// Pairs evaluated since the last assign/reset, the owner row included.
  [[nodiscard]] std::uint64_t links_evaluated() const noexcept {
    return links_evaluated_;
  }

 private:
  enum State : char { kDeferred, kAbsent, kLinked };

  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j) const noexcept {
    return i * ids_.size() + j;
  }
  [[nodiscard]] State state(std::size_t i, std::size_t j) const {
    const State known = state_[flat(i, j)];
    return known != kDeferred ? known : resolve(i, j);
  }
  template <typename T>
  [[nodiscard]] T value(const std::vector<T>& values, std::size_t i,
                        std::size_t j) const {
    const std::size_t k = flat(i, j);
    if (state_[k] == kDeferred) resolve(i, j);
    return values[k];
  }
  /// Evaluates a deferred pair and memoizes it in both orientations.
  State resolve(std::size_t i, std::size_t j) const;
  /// cost_floor of a deferred pair, from squared distances only.
  [[nodiscard]] double deferred_floor(std::size_t i, std::size_t j) const;
  /// Sizes the per-pair arrays for `nodes` members, every pair `initial`.
  void prepare(std::size_t nodes, State initial);
  [[nodiscard]] std::span<const geom::Vec2> positions(
      std::size_t index) const noexcept {
    return {positions_.data() + first_[index],
            first_[index + 1] - first_[index]};
  }
  void link(std::size_t i, std::size_t j, double distance_min,
            double distance_max, CostKey cost_min, CostKey cost_max) const;

  std::vector<NodeId> ids_;
  // Member i's stored positions, newest first: positions_[first_[i] ..
  // first_[i + 1]).
  std::vector<geom::Vec2> positions_;
  std::vector<std::size_t> first_;
  const CostModel* cost_ = nullptr;
  double normal_range_ = 0.0;
  double reject_sq_ = 0.0;  // squared-distance pre-filter (view_graph.cpp)
  // Per-pair state and values, row-major over node_count()^2. Mutable:
  // a read resolves a deferred pair in place.
  mutable std::vector<State> state_;
  mutable std::vector<CostKey> cost_min_;
  mutable std::vector<CostKey> cost_max_;
  mutable std::vector<double> distance_min_;
  mutable std::vector<double> distance_max_;
  mutable std::uint64_t links_evaluated_ = 0;
};

/// Builds a consistent (single-version) view for `owner`: neighbors are the
/// nodes within `normal_range` of it, links exist between any two view
/// nodes within `normal_range`, and every cost interval is a point. This is
/// what every node sees in a static network — and, per Theorem 1, what
/// strong view consistency restores in a mobile one.
///
/// `ids[i]` is the global id for `positions[i]`; `owner_index` indexes into
/// those arrays.
[[nodiscard]] ViewGraph make_consistent_view(
    std::span<const geom::Vec2> positions, std::span<const NodeId> ids,
    std::size_t owner_index, double normal_range, const CostModel& cost);

}  // namespace mstc::topology
