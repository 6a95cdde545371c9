#include "mobility/models.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mstc::mobility {

namespace {

geom::Vec2 uniform_point(util::Xoshiro256& rng, const Area& area) {
  return {rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)};
}

/// Advances (pos, velocity) by dt inside `area`, emitting constant-velocity
/// legs into `legs` and reflecting the velocity at wall hits, so that every
/// emitted leg lies entirely inside the area. `t` is advanced by dt.
void advance_with_reflection(std::vector<Leg>& legs, geom::Vec2& pos,
                             geom::Vec2& velocity, double& t, double dt,
                             const Area& area) {
  double remaining = dt;
  while (remaining > 1e-12) {
    double time_to_wall = remaining;
    if (velocity.x > 0.0) {
      time_to_wall = std::min(time_to_wall, (area.width - pos.x) / velocity.x);
    } else if (velocity.x < 0.0) {
      time_to_wall = std::min(time_to_wall, pos.x / -velocity.x);
    }
    if (velocity.y > 0.0) {
      time_to_wall = std::min(time_to_wall, (area.height - pos.y) / velocity.y);
    } else if (velocity.y < 0.0) {
      time_to_wall = std::min(time_to_wall, pos.y / -velocity.y);
    }
    time_to_wall = std::max(time_to_wall, 0.0);
    const double step = std::min(time_to_wall, remaining);
    legs.push_back({t, pos, velocity});
    pos += velocity * step;
    t += step;
    remaining -= step;
    if (remaining > 1e-12) {
      // A wall was hit before the step ended: flip the offending component.
      constexpr double kEps = 1e-9;
      if (pos.x <= kEps || pos.x >= area.width - kEps) {
        velocity.x = -velocity.x;
      }
      if (pos.y <= kEps || pos.y >= area.height - kEps) {
        velocity.y = -velocity.y;
      }
      if (step <= 1e-12 && time_to_wall <= 1e-12 &&
          velocity.norm_sq() < 1e-18) {
        break;  // zero velocity pinned at a wall: nothing more to do
      }
      if (step <= 1e-12) {
        // Guard against a pathological corner where reflection makes no
        // progress; nudge time forward by consuming the remainder in place.
        legs.push_back({t, pos, {0.0, 0.0}});
        t += remaining;
        break;
      }
    }
  }
}

}  // namespace

Trace StaticModel::make_trace(util::Xoshiro256& rng, double duration) const {
  return Trace({Leg{0.0, uniform_point(rng, area_), {0.0, 0.0}}}, duration);
}

RandomWaypoint::RandomWaypoint(Area area, double min_speed, double max_speed,
                               double pause_time)
    : area_(area),
      min_speed_(min_speed),
      max_speed_(max_speed),
      pause_time_(pause_time) {
  assert(min_speed_ > 0.0 && max_speed_ >= min_speed_);
  assert(pause_time_ >= 0.0);
}

Trace RandomWaypoint::make_trace(util::Xoshiro256& rng,
                                 double duration) const {
  std::vector<Leg> legs;
  geom::Vec2 pos = uniform_point(rng, area_);
  double t = 0.0;
  while (t < duration) {
    const geom::Vec2 dest = uniform_point(rng, area_);
    const double leg_length = geom::distance(pos, dest);
    if (leg_length < 1e-9) continue;  // degenerate waypoint, redraw
    const double speed = rng.uniform(min_speed_, max_speed_);
    legs.push_back({t, pos, (dest - pos).normalized() * speed});
    t += leg_length / speed;
    pos = dest;
    if (pause_time_ > 0.0 && t < duration) {
      legs.push_back({t, pos, {0.0, 0.0}});
      t += pause_time_;
    }
  }
  return Trace(std::move(legs), duration);
}

RandomWalk::RandomWalk(Area area, double speed, double leg_time)
    : area_(area), speed_(speed), leg_time_(leg_time) {
  assert(speed_ > 0.0 && leg_time_ > 0.0);
}

Trace RandomWalk::make_trace(util::Xoshiro256& rng, double duration) const {
  std::vector<Leg> legs;
  geom::Vec2 pos = uniform_point(rng, area_);
  double t = 0.0;
  while (t < duration) {
    const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
    geom::Vec2 velocity{speed_ * std::cos(heading), speed_ * std::sin(heading)};
    advance_with_reflection(legs, pos, velocity, t, leg_time_, area_);
  }
  if (legs.empty()) legs.push_back({0.0, pos, {0.0, 0.0}});
  return Trace(std::move(legs), duration);
}

GaussMarkov::GaussMarkov(Area area, double mean_speed, double alpha,
                         double step)
    : area_(area), mean_speed_(mean_speed), alpha_(alpha), step_(step) {
  assert(mean_speed_ > 0.0);
  assert(alpha_ >= 0.0 && alpha_ <= 1.0);
  assert(step_ > 0.0);
}

Trace GaussMarkov::make_trace(util::Xoshiro256& rng, double duration) const {
  std::vector<Leg> legs;
  geom::Vec2 pos = uniform_point(rng, area_);
  // Start at the mean speed in a random direction.
  const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
  geom::Vec2 velocity{mean_speed_ * std::cos(heading),
                      mean_speed_ * std::sin(heading)};
  const double sigma = mean_speed_ * 0.5;
  const double noise_scale = std::sqrt(1.0 - alpha_ * alpha_) * sigma;
  double t = 0.0;
  while (t < duration) {
    advance_with_reflection(legs, pos, velocity, t, step_, area_);
    // AR(1) update toward a mean velocity whose direction follows the
    // current heading (keeps average speed near mean_speed_).
    const geom::Vec2 mean_velocity = velocity.normalized() * mean_speed_;
    velocity = alpha_ * velocity + (1.0 - alpha_) * mean_velocity +
               geom::Vec2{noise_scale * rng.normal(),
                          noise_scale * rng.normal()};
  }
  return Trace(std::move(legs), duration);
}

std::unique_ptr<MobilityModel> make_paper_waypoint(Area area,
                                                   double average_speed) {
  return std::make_unique<RandomWaypoint>(area, 0.5 * average_speed,
                                          1.5 * average_speed,
                                          /*pause_time=*/0.0);
}

std::unique_ptr<MobilityModel> make_model(const std::string& name, Area area,
                                          double average_speed) {
  if (name == "static") return std::make_unique<StaticModel>(area);
  if (name == "waypoint") return make_paper_waypoint(area, average_speed);
  if (name == "walk") {
    return std::make_unique<RandomWalk>(area, average_speed, 5.0);
  }
  if (name == "gauss") {
    return std::make_unique<GaussMarkov>(area, average_speed, 0.8);
  }
  throw std::invalid_argument("unknown mobility model: " + name);
}

std::vector<Trace> generate_traces(const MobilityModel& model,
                                   std::size_t count, double duration,
                                   std::uint64_t seed) {
  std::vector<Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Xoshiro256 rng(util::derive_seed(seed, i));
    traces.push_back(model.make_trace(rng, duration));
  }
  return traces;
}

}  // namespace mstc::mobility
