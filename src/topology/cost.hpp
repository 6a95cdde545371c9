// Link cost models and totally-ordered cost keys.
//
// Section 3.1 of the paper: each link (u, v) gets a cost computed from the
// distance d(u, v) — c = d for RNG/MST-based protocols, c = d^alpha + c0
// for the SPT-based (minimum-energy) protocol — and ties are broken by the
// IDs of the end nodes so that link costs form a total order.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>

namespace mstc::topology {

using NodeId = std::size_t;

/// Strictly increasing map from link length to link cost.
class CostModel {
 public:
  virtual ~CostModel() = default;
  [[nodiscard]] virtual double cost(double distance) const = 0;
  /// A lower bound on cost(std::hypot(dx, dy)) read off the rounded
  /// squared distance, without the hypot: for finite dx, dy and every
  /// distance_sq <= fl(dx * dx + dy * dy), cost_floor(distance_sq) <=
  /// cost(std::hypot(dx, dy)). A relative margin of 1e-12 covers the
  /// rounding of both sides; where distance_sq or its power is subnormal
  /// or not finite the floor is cost(0) (proof in docs/PERFORMANCE.md,
  /// "Pairs pruned by a cost floor").
  [[nodiscard]] virtual double cost_floor(double distance_sq) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// c = d (RNG-based and MST-based protocols).
class DistanceCost final : public CostModel {
 public:
  [[nodiscard]] double cost(double distance) const override { return distance; }
  [[nodiscard]] double cost_floor(double distance_sq) const override;
  [[nodiscard]] std::string name() const override { return "distance"; }
};

/// c = d^alpha + c0 (SPT-based minimum-energy protocol). alpha = 2 models
/// free space, alpha = 4 two-ray ground reflection; c0 is the constant
/// per-hop overhead that penalizes long multi-hop detours. alpha > 0; the
/// cost floor is (d^2)^(alpha/2) less the margin, plus c0, for alpha up to
/// 64 and cost(0) beyond, where the margin no longer covers the rounding.
class EnergyCost final : public CostModel {
 public:
  explicit EnergyCost(double alpha, double overhead = 0.0)
      : alpha_(alpha), overhead_(overhead) {}
  [[nodiscard]] double cost(double distance) const override;
  [[nodiscard]] double cost_floor(double distance_sq) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double overhead_;
};

/// Totally ordered link cost: cost value with end-node-ID tie-breaking,
/// compared lexicographically as (value, lo, hi). Two distinct links never
/// compare equal, which Theorem 1's proof requires.
struct CostKey {
  double value = 0.0;
  NodeId lo = 0;
  NodeId hi = 0;

  [[nodiscard]] static CostKey make(double value, NodeId u, NodeId v) noexcept {
    return (u < v) ? CostKey{value, u, v} : CostKey{value, v, u};
  }

  friend constexpr auto operator<=>(const CostKey&, const CostKey&) = default;
};

}  // namespace mstc::topology
