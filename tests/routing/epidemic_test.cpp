#include "routing/epidemic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace mstc::routing {
namespace {

EpidemicConfig sparse_config() {
  EpidemicConfig cfg;
  cfg.node_count = 30;
  cfg.range = 100.0;
  cfg.average_speed = 15.0;
  cfg.duration = 80.0;
  cfg.message_count = 30;
  cfg.seed = 77;
  return cfg;
}

TEST(Epidemic, DeterministicForSameSeed) {
  const auto cfg = sparse_config();
  const auto a = run_epidemic(cfg);
  const auto b = run_epidemic(cfg);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_DOUBLE_EQ(a.delay.mean(), b.delay.mean());
  EXPECT_DOUBLE_EQ(a.mean_copies_per_message, b.mean_copies_per_message);
}

TEST(Epidemic, DeliversAcrossPartitionsViaMovement) {
  // The substrate is heavily partitioned (snapshot connectivity well below
  // 1), yet store-carry-forward delivers most messages eventually — the
  // mobility-assisted model of Section 2.2.
  const auto result = run_epidemic(sparse_config());
  EXPECT_LT(result.snapshot_connectivity, 0.8);
  EXPECT_GT(result.delivery_ratio, 0.7);
  EXPECT_GT(result.delay.mean(), 0.0) << "delivery is not instantaneous";
}

TEST(Epidemic, StaticPartitionedNetworkCannotDeliverEverything) {
  // Without movement, copies can never cross a partition boundary.
  auto cfg = sparse_config();
  cfg.mobility_model = "static";
  const auto result = run_epidemic(cfg);
  EXPECT_LT(result.delivery_ratio, 0.9);
}

TEST(Epidemic, FasterMovementShortensDelay) {
  auto cfg = sparse_config();
  cfg.average_speed = 5.0;
  const auto slow = run_epidemic(cfg);
  cfg.average_speed = 30.0;
  const auto fast = run_epidemic(cfg);
  // Mobility is the transport: faster nodes deliver sooner (allow slack
  // for the stochastic workload by comparing means with margin).
  EXPECT_LT(fast.delay.mean(), slow.delay.mean() + 1.0);
  EXPECT_GE(fast.delivery_ratio, slow.delivery_ratio - 0.1);
}

TEST(Epidemic, DirectOnlyDeliversLessThanEpidemic) {
  auto cfg = sparse_config();
  cfg.max_relay_hops = 0;  // source must meet destination itself
  const auto direct = run_epidemic(cfg);
  cfg.max_relay_hops = 64;
  const auto epidemic = run_epidemic(cfg);
  EXPECT_LE(direct.delivery_ratio, epidemic.delivery_ratio);
  EXPECT_LT(direct.mean_copies_per_message,
            epidemic.mean_copies_per_message);
}

TEST(Epidemic, SingleRelayReducesOverhead) {
  // Grossglauser-Tse style one-relay forwarding trades delivery/delay for
  // far fewer copies.
  auto cfg = sparse_config();
  cfg.max_relay_hops = 1;
  const auto one_relay = run_epidemic(cfg);
  cfg.max_relay_hops = 64;
  const auto flood = run_epidemic(cfg);
  EXPECT_LT(one_relay.mean_copies_per_message,
            flood.mean_copies_per_message);
}

TEST(Epidemic, BufferLimitCapsStorage) {
  auto cfg = sparse_config();
  cfg.buffer_limit = 2;
  const auto limited = run_epidemic(cfg);
  cfg.buffer_limit = 0;
  const auto unlimited = run_epidemic(cfg);
  EXPECT_LE(limited.delivery_ratio, unlimited.delivery_ratio + 1e-12);
}

TEST(Epidemic, DenseNetworkDeliversFastAndFully) {
  auto cfg = sparse_config();
  cfg.range = 250.0;
  cfg.node_count = 60;
  const auto result = run_epidemic(cfg);
  EXPECT_GT(result.delivery_ratio, 0.95);
  EXPECT_LT(result.delay.mean(), 10.0);
}

/// Expects validate() to reject `cfg` with an error naming `field`. Inputs
/// that would hang a run go through validate() alone, so a regression
/// fails here instead of running forever.
void expect_rejected(const EpidemicConfig& cfg, const std::string& field) {
  try {
    validate(cfg);
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("EpidemicConfig." + field + ": ",
                                              0),
              0u)
        << error.what();
  }
}

/// sparse_config() with one field changed by `edit`.
template <typename Edit>
EpidemicConfig with(Edit edit) {
  EpidemicConfig cfg = sparse_config();
  edit(cfg);
  return cfg;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(EpidemicValidate, RejectsFewerThanTwoNodes) {
  // A message redraws its destination until it differs from its source,
  // which never happened on 0 or 1 nodes.
  for (const std::size_t nodes : {0u, 1u}) {
    expect_rejected(with([&](auto& c) { c.node_count = nodes; }),
                    "node_count");
  }
  EXPECT_NO_THROW((void)run_epidemic(with([](auto& c) {
    c.node_count = 2;
    c.duration = 10.0;
  })));
}

TEST(EpidemicValidate, RejectsADurationThatIsNotFiniteAndPositive) {
  // Trace generation never finished at an infinite duration.
  for (const double duration : {kInf, kNaN, 0.0, -1.0}) {
    expect_rejected(with([&](auto& c) { c.duration = duration; }), "duration");
  }
}

TEST(EpidemicValidate, RejectsARangeThatIsNotFiniteAndPositive) {
  // A negative range ran and reported zeros.
  for (const double range : {kInf, kNaN, 0.0, -3.0}) {
    expect_rejected(with([&](auto& c) { c.range = range; }), "range");
  }
  EXPECT_THROW((void)run_epidemic(with([](auto& c) { c.range = -3.0; })),
               std::invalid_argument);
}

TEST(EpidemicValidate, RejectsASpeedThatIsNotFiniteAndNonNegative) {
  for (const double speed : {kInf, kNaN, -10.0}) {
    expect_rejected(with([&](auto& c) { c.average_speed = speed; }),
                    "average_speed");
  }
  EXPECT_NO_THROW(validate(with([](auto& c) { c.average_speed = 0.0; })));
}

TEST(EpidemicValidate, RejectsABeaconIntervalThatIsNotFiniteAndPositive) {
  // A beacon reschedules itself one interval later, so a zero interval
  // never leaves its instant.
  for (const double interval : {kInf, kNaN, 0.0, -1.0}) {
    expect_rejected(with([&](auto& c) { c.beacon_interval = interval; }),
                    "beacon_interval");
  }
}

TEST(Epidemic, UnknownMobilityModelThrows) {
  for (const char* model : {"static", "waypoint", "walk", "gauss"}) {
    EXPECT_NO_THROW(validate(with([&](auto& c) { c.mobility_model = model; })));
  }
  const auto cfg = with([](auto& c) { c.mobility_model = "hovercraft"; });
  expect_rejected(cfg, "mobility_model");
  EXPECT_THROW((void)run_epidemic(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace mstc::routing
