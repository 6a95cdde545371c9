#include "runner/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "runner/scenario.hpp"
#include "topology/protocol.hpp"

namespace mstc::runner {
namespace {

class ConfigEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"MSTC_PAPER_SCALE", "MSTC_SIM_TIME", "MSTC_NODES", "MSTC_FLOOD_RATE",
          "MSTC_SNAPSHOT_RATE", "MSTC_WARMUP", "MSTC_REPEATS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(ConfigEnvTest, DefaultsMatchPaperSection51) {
  const ScenarioConfig cfg;
  EXPECT_EQ(cfg.node_count, 100u);
  EXPECT_DOUBLE_EQ(cfg.area.width, 900.0);
  EXPECT_DOUBLE_EQ(cfg.area.height, 900.0);
  EXPECT_DOUBLE_EQ(cfg.normal_range, 250.0);
  EXPECT_EQ(cfg.mobility_model, "waypoint");
  EXPECT_DOUBLE_EQ(cfg.hello_interval, 1.0);
  EXPECT_DOUBLE_EQ(cfg.hello_jitter, 0.25);
}

TEST_F(ConfigEnvTest, PaperScaleRestoresFullParameters) {
  const ScenarioConfig cfg = paper_scale({});
  EXPECT_DOUBLE_EQ(cfg.duration, 100.0);
  EXPECT_DOUBLE_EQ(cfg.flood_rate, 10.0);
  EXPECT_DOUBLE_EQ(cfg.snapshot_rate, 10.0);
}

TEST_F(ConfigEnvTest, EnvOverridesApply) {
  ::setenv("MSTC_SIM_TIME", "55", 1);
  ::setenv("MSTC_NODES", "42", 1);
  const ScenarioConfig cfg = apply_env_overrides({});
  EXPECT_DOUBLE_EQ(cfg.duration, 55.0);
  EXPECT_EQ(cfg.node_count, 42u);
}

TEST_F(ConfigEnvTest, PaperScaleFlagAppliesBeforeOverrides) {
  ::setenv("MSTC_PAPER_SCALE", "1", 1);
  ::setenv("MSTC_FLOOD_RATE", "2", 1);
  const ScenarioConfig cfg = apply_env_overrides({});
  EXPECT_DOUBLE_EQ(cfg.duration, 100.0);   // from paper scale
  EXPECT_DOUBLE_EQ(cfg.flood_rate, 2.0);   // env wins over paper scale
}

TEST_F(ConfigEnvTest, SweepRepeatsDefaultAndEnv) {
  EXPECT_EQ(sweep_repeats(5), 5u);
  ::setenv("MSTC_REPEATS", "9", 1);
  EXPECT_EQ(sweep_repeats(5), 9u);
}

TEST_F(ConfigEnvTest, PaperScaleImpliesTwentyRepeats) {
  ::setenv("MSTC_PAPER_SCALE", "1", 1);
  EXPECT_EQ(sweep_repeats(5), 20u);
  ::setenv("MSTC_REPEATS", "7", 1);
  EXPECT_EQ(sweep_repeats(5), 7u);
}

TEST(EffectiveHistory, ModeDefaults) {
  ScenarioConfig cfg;
  cfg.mode = core::ConsistencyMode::kLatest;
  EXPECT_EQ(cfg.effective_history(), 1u);
  cfg.mode = core::ConsistencyMode::kWeak;
  EXPECT_EQ(cfg.effective_history(), 2u);
  cfg.mode = core::ConsistencyMode::kProactive;
  EXPECT_EQ(cfg.effective_history(), 3u);
  cfg.history_limit = 5;
  EXPECT_EQ(cfg.effective_history(), 5u) << "explicit value wins";
}

/// The default config with one field changed by `edit`.
template <typename Edit>
ScenarioConfig with(Edit edit) {
  ScenarioConfig cfg;
  edit(cfg);
  return cfg;
}

TEST(Validate, AcceptsDefaultsAndEveryKnownName) {
  EXPECT_NO_THROW(validate(ScenarioConfig{}));
  for (const char* mac : {"ideal", "csma"}) {
    EXPECT_NO_THROW(validate(with([&](auto& c) { c.mac = mac; })));
  }
  for (const char* model : {"static", "waypoint", "walk", "gauss"}) {
    EXPECT_NO_THROW(validate(with([&](auto& c) { c.mobility_model = model; })));
  }
  for (const std::string& name : topology::protocol_names()) {
    EXPECT_NO_THROW(validate(with([&](auto& c) { c.protocol = name; })));
  }
  EXPECT_NO_THROW(validate(with([](auto& c) { c.hello_jitter = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.node_count = 1; })));
  // Zero rates, speed and offsets are valid: they switch a workload off.
  EXPECT_NO_THROW(validate(with([](auto& c) { c.flood_rate = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.snapshot_rate = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) {
    c.mobility_model = "static";
    c.average_speed = 0.0;
  })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.warmup = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.flood_settle = 0.0; })));
  // The set-up batches of the end-to-end benchmark: a millisecond run with
  // no floods or snapshots still builds and runs.
  EXPECT_NO_THROW((void)run_scenario(with([](auto& c) {
    c.duration = c.warmup = 1e-3;
    c.flood_rate = c.snapshot_rate = 0.0;
  })));
}

// Each rejected config would otherwise crash or never finish, or run and
// report zeros: run_scenario validates before it builds anything.
TEST(Validate, RejectsAnEmptyFleet) {
  // Segfaulted before validation existed.
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.node_count = 0; })),
               std::invalid_argument);
}

TEST(Validate, RejectsAFleetWhoseIdsOverflow32Bits) {
  // The Hello fan-out and the view stores narrow node ids to 32 bits, so
  // the largest id, node_count - 1, must fit.
  constexpr auto kMaxNodes = static_cast<std::size_t>(std::uint64_t{1} << 32);
  EXPECT_NO_THROW(validate(with([](auto& c) { c.node_count = kMaxNodes; })));
  try {
    validate(with([](auto& c) { c.node_count = kMaxNodes + 1; }));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "ScenarioConfig.node_count: at most 2^32 nodes, got 4294967297");
  }
}

TEST(Validate, RejectsAHistoryWhoseCountOverflows32Bits) {
  // LocalViewStore keeps each sender's record count in 32 bits; a larger
  // limit used to reach the store's allocation as std::bad_alloc.
  constexpr auto kMaxHistory =
      static_cast<std::size_t>((std::uint64_t{1} << 32) - 1);
  EXPECT_NO_THROW(
      validate(with([](auto& c) { c.history_limit = kMaxHistory; })));
  try {
    validate(with([](auto& c) { c.history_limit = kMaxHistory + 1; }));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "ScenarioConfig.history_limit: at most 2^32 - 1 records, got "
              "4294967296");
  }
}

TEST(Validate, RejectsANonPositiveOrNonFiniteRange) {
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.normal_range = 0.0; })),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_scenario(with([](auto& c) { c.normal_range = -5.0; })),
      std::invalid_argument);
  EXPECT_THROW((void)run_scenario(with([](auto& c) {
                 c.normal_range = std::numeric_limits<double>::infinity();
               })),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(with([](auto& c) {
                 c.normal_range = std::numeric_limits<double>::quiet_NaN();
               })),
               std::invalid_argument);
}

TEST(Validate, RejectsANonPositiveOrNonFiniteHelloInterval) {
  // A zero interval never terminated before validation existed.
  EXPECT_THROW(
      (void)run_scenario(with([](auto& c) { c.hello_interval = 0.0; })),
      std::invalid_argument);
  EXPECT_THROW(
      (void)run_scenario(with([](auto& c) { c.hello_interval = -1.0; })),
      std::invalid_argument);
  EXPECT_THROW((void)run_scenario(with([](auto& c) {
                 c.hello_interval = std::numeric_limits<double>::quiet_NaN();
               })),
               std::invalid_argument);
}

TEST(Validate, RejectsAHelloJitterOutsideZeroToOne) {
  // A jitter of 1.5 never terminated before validation existed.
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.hello_jitter = 1.5; })),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.hello_jitter = 1.0; })),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_scenario(with([](auto& c) { c.hello_jitter = -0.1; })),
      std::invalid_argument);
}

TEST(Validate, RejectsUnknownNames) {
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.mac = "tdma"; })),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_scenario(with([](auto& c) { c.mobility_model = "levy"; })),
      std::invalid_argument);
  EXPECT_THROW((void)run_scenario(with([](auto& c) { c.protocol = "XTC"; })),
               std::invalid_argument);
}

/// Expects validate() to reject `cfg` with an error naming `field`. Inputs
/// that would hang a run go through validate() alone, so a regression
/// fails here instead of running forever.
void expect_rejected(const ScenarioConfig& cfg, const std::string& field) {
  try {
    validate(cfg);
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("ScenarioConfig." + field + ":"),
              std::string::npos)
        << error.what();
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Validate, RejectsADurationThatIsNotFiniteAndPositive) {
  // Every mobility model generates legs while t < duration, so
  // `mstc-sim --duration inf` never finished building its fleet.
  for (const double duration : {kInf, kNaN, 0.0, -1.0}) {
    expect_rejected(with([&](auto& c) { c.duration = duration; }), "duration");
  }
}

TEST(Validate, RejectsARateThatIsNotFiniteAndNonNegative) {
  // At an infinite rate the schedule steps by 1 / rate = 0, so the flood
  // and snapshot loops never ended.
  for (const double rate : {kInf, kNaN, -1.0}) {
    expect_rejected(with([&](auto& c) { c.flood_rate = rate; }), "flood_rate");
    expect_rejected(with([&](auto& c) { c.snapshot_rate = rate; }),
                    "snapshot_rate");
  }
}

TEST(Validate, RejectsASpeedThatIsNotFiniteAndNonNegative) {
  // A negative waypoint speed walks the trace's clock backwards.
  for (const double speed : {kInf, kNaN, -10.0}) {
    expect_rejected(with([&](auto& c) { c.average_speed = speed; }),
                    "average_speed");
  }
}

TEST(Validate, RejectsAWarmupOrSettleThatIsNotFiniteAndNonNegative) {
  // Negative offsets schedule measurements before time 0.
  for (const double offset : {kInf, kNaN, -0.5}) {
    expect_rejected(with([&](auto& c) { c.warmup = offset; }), "warmup");
    expect_rejected(with([&](auto& c) { c.flood_settle = offset; }),
                    "flood_settle");
  }
}

TEST(Validate, RejectsAHelloLossOutsideZeroToOne) {
  for (const double loss : {kNaN, -0.1, 1.5}) {
    expect_rejected(with([&](auto& c) { c.hello_loss = loss; }), "hello_loss");
  }
  EXPECT_NO_THROW(validate(with([](auto& c) { c.hello_loss = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.hello_loss = 1.0; })));
}

TEST(Validate, RejectsABufferWidthThatIsNotFiniteAndNonNegative) {
  // `mstc-sim --buffer inf` (or nan) used to run: the infinite radius
  // reached the grid's cell arithmetic and printed a range of inf m. A
  // negative width transmitted short of the farthest logical neighbour.
  for (const double width : {kInf, kNaN, -1.0}) {
    expect_rejected(with([&](auto& c) { c.buffer_width = width; }),
                    "buffer_width");
  }
  EXPECT_NO_THROW(validate(with([](auto& c) { c.buffer_width = 0.0; })));
  EXPECT_NO_THROW(validate(with([](auto& c) { c.buffer_width = 50.0; })));
}

TEST(Validate, RejectsAnAreaSideThatIsNotFiniteAndPositive) {
  for (const double side : {kInf, kNaN, 0.0, -900.0}) {
    expect_rejected(with([&](auto& c) { c.area.width = side; }), "area.width");
    expect_rejected(with([&](auto& c) { c.area.height = side; }),
                    "area.height");
  }
  EXPECT_NO_THROW(validate(with([](auto& c) { c.area = {40.0, 1800.0}; })));
}

TEST(Validate, RejectsAFloodScheduleThatStartsNoFlood) {
  // `mstc-sim --duration 2` (warmup 3 s) ran and printed a flood
  // connectivity of 0.000 ± 0.000, which reads as a disconnected network.
  expect_rejected(with([](auto& c) { c.duration = 2.0; }), "warmup");
  expect_rejected(with([](auto& c) {
                    c.duration = 10.0;
                    c.warmup = 9.6;  // the last start would be 9.5
                  }),
                  "warmup");
  // The boundary is the schedule's own test: a flood starting exactly at
  // duration - flood_settle still runs.
  EXPECT_NO_THROW(validate(with([](auto& c) {
    c.duration = 10.0;
    c.warmup = 9.5;
  })));
  // Floods off: no flood is owed.
  EXPECT_NO_THROW(validate(with([](auto& c) {
    c.duration = 3.2;
    c.flood_rate = 0.0;
  })));
}

TEST(Validate, RejectsASnapshotScheduleThatTakesNoSnapshot) {
  // With floods off, a run ending before its warmup took no snapshot and
  // reported a strict connectivity of 0.
  expect_rejected(with([](auto& c) {
                    c.duration = 2.0;
                    c.flood_rate = 0.0;
                  }),
                  "warmup");
  // A snapshot exactly at the end of the run is taken.
  EXPECT_NO_THROW(validate(with([](auto& c) {
    c.duration = 3.0;
    c.flood_rate = 0.0;
  })));
  // Snapshots off: none is owed.
  EXPECT_NO_THROW(validate(with([](auto& c) {
    c.duration = 2.0;
    c.flood_rate = c.snapshot_rate = 0.0;
  })));
}

TEST(Validate, NamesTheOffendingField) {
  try {
    validate(with([](auto& c) { c.hello_jitter = 1.5; }));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("hello_jitter"),
              std::string::npos)
        << error.what();
  }
  try {
    validate(with([](auto& c) { c.protocol = "XTC"; }));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("protocol"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace mstc::runner
