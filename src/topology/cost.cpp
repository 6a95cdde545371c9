#include "topology/cost.hpp"

#include <cmath>
#include <sstream>

namespace mstc::topology {

namespace {

/// The floors' relative margin, kRejectMargin's 1e-12 (view_graph.cpp):
/// fl(dx*dx + dy*dy), std::hypot, std::sqrt and std::pow each round by a
/// few ulps (~1e-16 each), so (1 - 1e-12) times the squared-distance
/// estimate stays below the exactly rounded cost (docs/PERFORMANCE.md).
constexpr double kFloorMargin = 1.0 - 1e-12;

/// Largest exponent the margin covers: the power scales the relative
/// rounding of d^2 and of the hypot by alpha.
constexpr double kMaxFloorAlpha = 64.0;

}  // namespace

double DistanceCost::cost_floor(double distance_sq) const {
  // The relative error bounds hold only for normal, finite values.
  if (!std::isnormal(distance_sq)) return cost(0.0);
  return std::sqrt(distance_sq) * kFloorMargin;
}

double EnergyCost::cost(double distance) const {
  return std::pow(distance, alpha_) + overhead_;
}

double EnergyCost::cost_floor(double distance_sq) const {
  if (!std::isnormal(distance_sq) || !(alpha_ <= kMaxFloorAlpha)) {
    return cost(0.0);
  }
  // Plain multiplies for the paper's exponents, one rounding at most.
  const double power = alpha_ == 2.0   ? distance_sq
                       : alpha_ == 4.0 ? distance_sq * distance_sq
                                       : std::pow(distance_sq, 0.5 * alpha_);
  if (!std::isnormal(power)) return cost(0.0);
  return power * kFloorMargin + overhead_;
}

std::string EnergyCost::name() const {
  std::ostringstream out;
  out << "energy(alpha=" << alpha_ << ")";
  return out.str();
}

}  // namespace mstc::topology
