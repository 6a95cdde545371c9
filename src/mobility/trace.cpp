#include "mobility/trace.hpp"

#include <algorithm>
#include <cassert>

namespace mstc::mobility {

Trace::Trace(std::vector<Leg> legs, double duration)
    : legs_(std::move(legs)), duration_(duration) {
  assert(!legs_.empty());
  assert(legs_.front().start_time == 0.0);
  for (const Leg& leg : legs_) {
    max_speed_ = std::max(max_speed_, leg.velocity.norm());
  }
}

geom::Vec2 Trace::position(double t) const noexcept {
  if (legs_.empty()) return {};
  t = std::clamp(t, 0.0, duration_);
  const Leg& leg = legs_[leg_at(t)];
  return leg.origin + leg.velocity * (t - leg.start_time);
}

std::size_t Trace::leg_at(double t) const noexcept {
  assert(!legs_.empty());
  t = std::clamp(t, 0.0, duration_);
  const auto it = std::upper_bound(
      legs_.begin(), legs_.end(), t,
      [](double value, const Leg& leg) { return value < leg.start_time; });
  return static_cast<std::size_t>(it - legs_.begin()) - 1;
}

}  // namespace mstc::mobility
