// Piecewise-linear mobility traces.
//
// A Trace answers position(t) *exactly* for any t in [0, duration]; all
// simulator components (Hello transmissions, packet receptions, topology
// snapshots) therefore observe physically consistent node positions. The
// location staleness the paper studies arises purely from *when* a position
// was advertised, never from simulator interpolation error.
//
// A Trace is immutable after construction and safe to share across threads
// (mobility::TraceCache hands one generated set to every sweep point with
// identical mobility inputs). The per-query fast path lives in caller-owned
// state — sim::Medium keeps one flat record of each node's current leg — so
// sharing involves no mutation at all.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace mstc::mobility {

/// One constant-velocity leg starting at `start_time` from `origin`.
struct Leg {
  double start_time = 0.0;
  geom::Vec2 origin;
  geom::Vec2 velocity;
};

class Trace {
 public:
  Trace() = default;

  /// Legs must be sorted by start_time with legs.front().start_time == 0.
  Trace(std::vector<Leg> legs, double duration);

  /// Exact position at time t: with t clamped to [0, duration], the leg
  /// leg_at(t) evaluated as origin + velocity * (t - start_time). Binary
  /// search over the legs, O(log legs).
  [[nodiscard]] geom::Vec2 position(double t) const noexcept;

  /// Index of the leg position(t) evaluates: the last leg starting at or
  /// before t clamped to [0, duration]. Requires at least one leg.
  [[nodiscard]] std::size_t leg_at(double t) const noexcept;

  /// Largest leg speed; the adaptive buffer zone uses this bound.
  [[nodiscard]] double max_speed() const noexcept { return max_speed_; }

  [[nodiscard]] double duration() const noexcept { return duration_; }
  [[nodiscard]] const std::vector<Leg>& legs() const noexcept { return legs_; }

  /// Upper bound on |position(t1) - position(t0)| for t0 <= t1, from the
  /// max-speed bound (used by Theorem 5 style reasoning in tests).
  [[nodiscard]] double displacement_bound(double t0, double t1) const noexcept {
    return max_speed_ * (t1 - t0);
  }

 private:
  std::vector<Leg> legs_;
  double duration_ = 0.0;
  double max_speed_ = 0.0;
};

/// Rectangular deployment area [0, width] x [0, height].
struct Area {
  double width = 900.0;
  double height = 900.0;

  [[nodiscard]] bool contains(geom::Vec2 p) const noexcept {
    return p.x >= 0.0 && p.x <= width && p.y >= 0.0 && p.y <= height;
  }
};

}  // namespace mstc::mobility
