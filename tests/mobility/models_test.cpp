#include "mobility/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mstc::mobility {
namespace {

constexpr Area kArea{900.0, 900.0};

class ModelCase {
 public:
  ModelCase(std::string name, std::unique_ptr<MobilityModel> model,
            double expected_max_speed)
      : name_(std::move(name)),
        model_(std::move(model)),
        expected_max_speed_(expected_max_speed) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const MobilityModel& model() const { return *model_; }
  [[nodiscard]] double expected_max_speed() const {
    return expected_max_speed_;
  }

 private:
  std::string name_;
  std::unique_ptr<MobilityModel> model_;
  double expected_max_speed_;
};

std::shared_ptr<ModelCase> make_case(int index) {
  switch (index) {
    case 0:
      return std::make_shared<ModelCase>(
          "static", std::make_unique<StaticModel>(kArea), 0.0);
    case 1:
      return std::make_shared<ModelCase>(
          "waypoint", std::make_unique<RandomWaypoint>(kArea, 5.0, 15.0), 15.0);
    case 2:
      return std::make_shared<ModelCase>(
          "walk", std::make_unique<RandomWalk>(kArea, 10.0, 5.0), 10.0);
    case 3:
      // Gauss-Markov speed is unbounded in theory; allow generous slack.
      return std::make_shared<ModelCase>(
          "gauss_markov",
          std::make_unique<GaussMarkov>(kArea, 10.0, 0.8), 60.0);
    default:
      return nullptr;
  }
}

class MobilityModelTest : public ::testing::TestWithParam<int> {};

TEST_P(MobilityModelTest, TraceStaysInsideArea) {
  const auto test_case = make_case(GetParam());
  util::Xoshiro256 rng(101);
  for (int node = 0; node < 5; ++node) {
    const Trace trace = test_case->model().make_trace(rng, 60.0);
    for (double t = 0.0; t <= 60.0; t += 0.25) {
      const auto p = trace.position(t);
      EXPECT_GE(p.x, -1e-6) << test_case->name() << " t=" << t;
      EXPECT_LE(p.x, kArea.width + 1e-6) << test_case->name() << " t=" << t;
      EXPECT_GE(p.y, -1e-6) << test_case->name() << " t=" << t;
      EXPECT_LE(p.y, kArea.height + 1e-6) << test_case->name() << " t=" << t;
    }
  }
}

TEST_P(MobilityModelTest, MaxSpeedIsBounded) {
  const auto test_case = make_case(GetParam());
  util::Xoshiro256 rng(103);
  for (int node = 0; node < 5; ++node) {
    const Trace trace = test_case->model().make_trace(rng, 60.0);
    EXPECT_LE(trace.max_speed(), test_case->expected_max_speed() + 1e-9)
        << test_case->name();
  }
}

TEST_P(MobilityModelTest, PositionIsContinuous) {
  // No teleporting: displacement over dt never exceeds max_speed * dt.
  const auto test_case = make_case(GetParam());
  util::Xoshiro256 rng(107);
  const Trace trace = test_case->model().make_trace(rng, 60.0);
  constexpr double kDt = 0.1;
  for (double t = 0.0; t + kDt <= 60.0; t += kDt) {
    const double hop =
        geom::distance(trace.position(t), trace.position(t + kDt));
    EXPECT_LE(hop, trace.max_speed() * kDt + 1e-9)
        << test_case->name() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, MobilityModelTest,
                         ::testing::Range(0, 4),
                         [](const auto& param_info) {
                           return make_case(param_info.param)->name();
                         });

TEST(RandomWaypoint, AverageSpeedNearConfigured) {
  // Time-weighted average speed of the paper config [0.5v, 1.5v] is the
  // harmonic mean over legs, somewhat below v; sanity check a broad band.
  util::Xoshiro256 rng(109);
  const auto model = make_paper_waypoint(kArea, 20.0);
  double distance_total = 0.0;
  const double duration = 500.0;
  for (int node = 0; node < 10; ++node) {
    const Trace trace = model->make_trace(rng, duration);
    for (double t = 0.0; t + 1.0 <= duration; t += 1.0) {
      distance_total +=
          geom::distance(trace.position(t), trace.position(t + 1.0));
    }
  }
  const double avg_speed = distance_total / (10.0 * (duration - 1.0));
  EXPECT_GT(avg_speed, 12.0);
  EXPECT_LT(avg_speed, 24.0);
}

TEST(RandomWaypoint, ZeroPauseNeverStops) {
  util::Xoshiro256 rng(113);
  const RandomWaypoint model(kArea, 10.0, 10.0, 0.0);
  const Trace trace = model.make_trace(rng, 120.0);
  for (const Leg& leg : trace.legs()) {
    EXPECT_GT(leg.velocity.norm(), 1e-9);
  }
}

TEST(RandomWaypoint, PauseInsertsZeroVelocityLegs) {
  util::Xoshiro256 rng(127);
  const RandomWaypoint model(kArea, 10.0, 10.0, 2.0);
  const Trace trace = model.make_trace(rng, 300.0);
  bool saw_pause = false;
  for (const Leg& leg : trace.legs()) {
    saw_pause |= (leg.velocity.norm() < 1e-12);
  }
  EXPECT_TRUE(saw_pause);
}

TEST(GenerateTraces, DeterministicAndPrefixStable) {
  const StaticModel model(kArea);
  const auto a = generate_traces(model, 10, 60.0, 42);
  const auto b = generate_traces(model, 10, 60.0, 42);
  const auto c = generate_traces(model, 20, 60.0, 42);
  const auto d = generate_traces(model, 10, 60.0, 43);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i].position(0.0), b[i].position(0.0));
    // Trace i does not depend on the total node count.
    EXPECT_EQ(a[i].position(0.0), c[i].position(0.0));
  }
  // Different base seed yields different placements (with high probability).
  int moved = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    moved += (a[i].position(0.0) == d[i].position(0.0)) ? 0 : 1;
  }
  EXPECT_GT(moved, 5);
}

TEST(MakeModel, BuildsEveryScenarioModelByName) {
  // Leg for leg the model each name stood for before the factory existed,
  // so scenario and routing traces stay byte-identical.
  const auto same_legs = [](const MobilityModel& named,
                            const MobilityModel& direct) {
    const auto a = generate_traces(named, 4, 60.0, 7);
    const auto b = generate_traces(direct, 4, 60.0, 7);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].legs().size(), b[i].legs().size()) << "node " << i;
      for (std::size_t k = 0; k < a[i].legs().size(); ++k) {
        const Leg& x = a[i].legs()[k];
        const Leg& y = b[i].legs()[k];
        EXPECT_EQ(x.start_time, y.start_time);
        EXPECT_EQ(x.origin, y.origin);
        EXPECT_EQ(x.velocity, y.velocity);
      }
    }
  };
  same_legs(*make_model("static", kArea, 10.0), StaticModel(kArea));
  same_legs(*make_model("waypoint", kArea, 10.0),
            RandomWaypoint(kArea, 5.0, 15.0, 0.0));
  same_legs(*make_model("walk", kArea, 10.0), RandomWalk(kArea, 10.0, 5.0));
  same_legs(*make_model("gauss", kArea, 10.0), GaussMarkov(kArea, 10.0, 0.8));
  EXPECT_THROW((void)make_model("levy", kArea, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace mstc::mobility
