// Ideal wireless medium.
//
// The paper's simulations "use an ideal MAC layer without collision and
// contention": a transmission from u with range r at time t is received by
// exactly the nodes within Euclidean distance r of u's position at t, after
// a fixed propagation delay. Loss injection, when wanted, is applied by the
// caller (it owns the RNG streams); the medium itself is deterministic.
//
// Neighbor queries are served by a lazily maintained spatial index (a
// graph::SpatialGrid over node positions at an epoch time t0), whatever
// the fleet size. A query at time t filters candidates with the
// conservative radius r + 2 * v_max * |t - t0| over the epoch positions
// and then applies the exact distance check at the true query time, in
// one pass that writes every candidate and counts only the accepted ones
// (no branch on the distance test). The results are bit-identical to the
// brute-force O(n) scan — same receiver sets, same ascending-NodeId order
// — with ~an order of magnitude fewer distance evaluations on dense
// networks (see docs/PERFORMANCE.md, bench_scale and the differential
// suite in tests/sim/medium_grid_test.cpp). The brute scan serves only
// Config::brute_force, the empty fleet and ranges <= 0.
//
// Positions come from one flat 48-byte record per node holding its current
// leg (start, end, origin, velocity): inside [start, end) a position is
// one multiply-add on that record, the expression Trace::position
// evaluates, so the bits are the same; any other time (and every node's
// first query: the records start empty) falls back to the trace's binary
// search and refreshes the record. A Hello's ~40 position reads thus touch
// one contiguous array instead of a cursor, a Trace and the trace's leg
// block each.
//
// Threading: a Medium is strictly per-replication. Queries are logically
// const but mutate internal caches (the spatial index, position scratch,
// and the per-node leg records), so a Medium — even a const one — must
// never be shared across threads; debug builds assert the invariant by
// pinning the medium to the first querying thread. The *traces* behind
// it, in contrast, are immutable and safely shared: parallel sweeps hand
// one mobility::TraceCache set to many per-replication Mediums, each
// keeping its own leg records.
#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/spatial_grid.hpp"
#include "mobility/trace.hpp"
#include "obs/probe.hpp"

namespace mstc::sim {

using NodeId = std::size_t;

class Medium {
 public:
  struct Config {
    double propagation_delay = 1e-6;  ///< seconds; >= 0

    /// Escape hatch: serve every query with the brute-force O(n) scan
    /// instead of the spatial index. Results are bit-identical either way
    /// (the determinism suite compares whole sweeps byte-for-byte); brute
    /// force exists for differential testing and as a baseline for
    /// bench_scale.
    bool brute_force = false;
  };

  /// The medium aliases `traces`; the owner must outlive it.
  Medium(std::span<const mobility::Trace> traces, Config config);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return traces_.size();
  }
  [[nodiscard]] double propagation_delay() const noexcept {
    return config_.propagation_delay;
  }
  /// Fleet-wide speed bound (max over traces), fixed at construction; the
  /// conservative candidate radius is derived from it.
  [[nodiscard]] double max_speed() const noexcept { return max_speed_; }

  /// Ground-truth position of a node at time t, bit-identical to
  /// traces[node].position(t). Served from the node's leg record while t
  /// stays on that leg (the loosely increasing times the event loop
  /// produces) — the records are a per-Medium cache, never part of the
  /// shared Trace.
  [[nodiscard]] geom::Vec2 position(NodeId node, double t) const noexcept {
    const LegRecord& leg = legs_[node];
    if (leg.covers(t)) return leg.at(t);
    return advance_leg(node, t);
  }

  /// Ground-truth distance between two nodes at time t.
  [[nodiscard]] double distance(NodeId a, NodeId b, double t) const noexcept {
    return geom::distance(position(a, t), position(b, t));
  }

  /// Attaches an observability probe (counts receiver-set deliveries,
  /// index rebuilds and candidate filtering; see docs/OBSERVABILITY.md).
  /// The probe must outlive the medium; null detaches.
  void set_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Nodes other than `sender` within `range` (inclusive) of the sender's
  /// position at time `t`, written into `out` (cleared first) in ascending
  /// NodeId order.
  void receivers(NodeId sender, double range, double t,
                 std::vector<NodeId>& out) const;

  /// All positions at time t (for snapshot metrics).
  void positions(double t, std::vector<geom::Vec2>& out) const;

  /// Ground-truth graph of links with length <= range at time t: the
  /// paper's "original topology" under the normal transmission range when
  /// range = normal range. Pairs satisfy u < v and are emitted in
  /// lexicographically ascending order; `out` is cleared first.
  void links_within(double range, double t,
                    std::vector<std::pair<NodeId, NodeId>>& out) const;

  /// Convenience overload returning a fresh vector.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> links_within(
      double range, double t) const;

 private:
  /// One node's current leg. `end` is the next leg's start time, or the
  /// trace's duration for the last leg; an empty [start, end) never
  /// matches.
  struct LegRecord {
    double start = 0.0;
    double end = 0.0;
    geom::Vec2 origin;
    geom::Vec2 velocity;

    /// On the leg, 0 <= start <= t < end <= duration, so Trace::position's
    /// clamp leaves t alone and its search picks this leg: at(t) is then
    /// the expression it evaluates, on the same doubles.
    [[nodiscard]] bool covers(double t) const noexcept {
      return start <= t && t < end;
    }
    [[nodiscard]] geom::Vec2 at(double t) const noexcept {
      return origin + velocity * (t - start);
    }
  };
  static_assert(sizeof(LegRecord) == 48);

  /// The record of the leg `trace` evaluates at t.
  static LegRecord leg_record(const mobility::Trace& trace, double t) noexcept;

  /// The slow half of position(): evaluates the trace at t and points the
  /// node's record at the leg t falls on.
  geom::Vec2 advance_leg(NodeId node, double t) const noexcept;

  /// Rebuilds the spatial index at epoch t when absent, when the mobility
  /// slack outgrew `kRebuildSlackFraction * build_range_`, or when the
  /// requested range exceeds the range the cells were sized for (the
  /// ratchet: a grid built for a small radius must never serve a much
  /// larger one through a storm of tiny cells).
  void ensure_grid(double range, double t) const;
  /// Debug-only: pins the medium to the first thread that queries it
  /// (per-replication invariant; see the class comment).
  void assert_single_thread() const noexcept;

  std::span<const mobility::Trace> traces_;
  Config config_;
  const obs::Probe* probe_ = nullptr;
  double max_speed_ = 0.0;

  // Query-side caches; mutable because queries are logically const. All of
  // this is why a Medium is per-replication (see class comment).
  mutable graph::SpatialGrid grid_;
  mutable std::vector<geom::Vec2> epoch_positions_;  ///< SoA, at epoch_time_
  mutable double epoch_time_ = 0.0;
  mutable double build_range_ = 0.0;  ///< radius the current cells serve
  mutable bool grid_valid_ = false;
  mutable std::vector<std::size_t> candidate_buffer_;
  mutable std::vector<geom::Vec2> scratch_positions_;  ///< links_within scratch
  mutable std::vector<LegRecord> legs_;  ///< per node, its current leg
  mutable bool query_thread_set_ = false;
  mutable std::thread::id query_thread_;
};

}  // namespace mstc::sim
