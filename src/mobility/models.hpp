// Mobility models.
//
// The paper's evaluation uses the random waypoint model (Camp et al. [5])
// with zero pause time and average moving speed 1-160 m/s. RandomWalk and
// GaussMarkov are provided for robustness studies beyond the paper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mobility/trace.hpp"
#include "util/prng.hpp"

namespace mstc::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Generates one node's trace covering [0, duration].
  [[nodiscard]] virtual Trace make_trace(util::Xoshiro256& rng,
                                         double duration) const = 0;
};

/// Nodes placed uniformly at random and never moving.
class StaticModel final : public MobilityModel {
 public:
  explicit StaticModel(Area area) : area_(area) {}
  [[nodiscard]] Trace make_trace(util::Xoshiro256& rng,
                                 double duration) const override;

 private:
  Area area_;
};

/// Random waypoint: travel to a uniform destination at a uniform speed,
/// optionally pause, repeat. With `pause_time == 0` this is the paper's
/// configuration. Speeds are drawn from [min_speed, max_speed]; for an
/// average speed v use [0.5v, 1.5v] (see make_paper_waypoint).
class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(Area area, double min_speed, double max_speed,
                 double pause_time = 0.0);
  [[nodiscard]] Trace make_trace(util::Xoshiro256& rng,
                                 double duration) const override;

 private:
  Area area_;
  double min_speed_;
  double max_speed_;
  double pause_time_;
};

/// Random direction walk with boundary reflection: pick a uniform heading,
/// walk at constant speed for `leg_time`, reflect off area walls.
class RandomWalk final : public MobilityModel {
 public:
  RandomWalk(Area area, double speed, double leg_time);
  [[nodiscard]] Trace make_trace(util::Xoshiro256& rng,
                                 double duration) const override;

 private:
  Area area_;
  double speed_;
  double leg_time_;
};

/// Gauss-Markov: velocity evolves as an AR(1) process with memory `alpha`
/// in [0, 1] (1 = straight line, 0 = memoryless), discretized at `step`.
/// Positions reflect off area walls.
class GaussMarkov final : public MobilityModel {
 public:
  GaussMarkov(Area area, double mean_speed, double alpha, double step = 1.0);
  [[nodiscard]] Trace make_trace(util::Xoshiro256& rng,
                                 double duration) const override;

 private:
  Area area_;
  double mean_speed_;
  double alpha_;
  double step_;
};

/// The paper's mobility configuration: random waypoint, zero pause, speed
/// uniform in [0.5v, 1.5v] so the configured average is v.
[[nodiscard]] std::unique_ptr<MobilityModel> make_paper_waypoint(
    Area area, double average_speed);

/// The model a scenario names: "static", "waypoint" (make_paper_waypoint),
/// "walk" (5 s legs) or "gauss" (alpha 0.8), each at `average_speed`.
/// Throws std::invalid_argument for any other name.
[[nodiscard]] std::unique_ptr<MobilityModel> make_model(
    const std::string& name, Area area, double average_speed);

/// Generates `count` independent traces with per-node derived seeds, so a
/// scenario is reproducible from (seed) alone and trace i never depends on
/// how many other traces exist.
[[nodiscard]] std::vector<Trace> generate_traces(const MobilityModel& model,
                                                 std::size_t count,
                                                 double duration,
                                                 std::uint64_t seed);

}  // namespace mstc::mobility
