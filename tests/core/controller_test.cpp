#include "core/controller.hpp"

#include <gtest/gtest.h>

#include "core/effective.hpp"
#include "util/prng.hpp"

namespace mstc::core {
namespace {

using geom::Vec2;

HelloRecord hello(NodeId sender, Vec2 p, std::uint64_t version, double time) {
  return HelloRecord{sender, {p, version, time}};
}

class ControllerTest : public ::testing::Test {
 protected:
  topology::DistanceCost cost_;
  topology::LmstProtocol mst_;
};

TEST_F(ControllerTest, HelloSendRecordsOwnPositionAndSelects) {
  ControllerConfig config;
  NodeController node(0, mst_, cost_, config);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  const auto sent = node.on_hello_send(0.5, {0.0, 0.0}, 1);
  EXPECT_EQ(sent.sender, 0u);
  EXPECT_EQ(sent.version(), 1u);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
  EXPECT_TRUE(node.is_logical(1));
  EXPECT_FALSE(node.is_logical(2));
  EXPECT_NEAR(node.actual_range(), 5.0, 1e-6);
  EXPECT_EQ(node.hello_count(), 1u);
}

TEST_F(ControllerTest, ExtendedRangeAddsBufferWidth) {
  ControllerConfig config;
  config.normal_range = 250.0;
  config.buffer.width = 30.0;
  NodeController node(0, mst_, cost_, config);
  node.on_hello_receive(hello(1, {240.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.5, {0.0, 0.0}, 1);
  EXPECT_NEAR(node.actual_range(), 240.0, 1e-6);
  EXPECT_NEAR(node.extended_range(), 270.0, 1e-6)
      << "r + l may exceed the normal range (Theorem 5)";
  node.on_hello_receive(hello(1, {100.0, 0.0}, 2, 1.1), 1.1);
  node.on_hello_send(1.5, {0.0, 0.0}, 2);
  EXPECT_NEAR(node.extended_range(), 130.0, 1e-6);
}

TEST_F(ControllerTest, LogicalNeighborsAreSortedAscending) {
  // Documented contract of logical_neighbors(): sorted ascending, whatever
  // order Hellos arrive in and wherever the owner's id falls in the fleet.
  // is_logical() binary-searches the vector, so breaking sortedness makes
  // membership tests silently wrong rather than failing loudly.
  const topology::NoneProtocol keep_all;
  NodeController node(50, keep_all, cost_, ControllerConfig{});
  const std::vector<NodeId> arrival_order{90, 10, 70, 30, 60, 20};
  double t = 0.1;
  for (NodeId sender : arrival_order) {
    node.on_hello_receive(hello(sender, {1.0 + 0.1 * t, 2.0}, 1, t), t);
    t += 0.1;
  }
  node.on_hello_send(t, {0.0, 0.0}, 1);

  EXPECT_EQ(node.logical_neighbors(),
            (std::vector<NodeId>{10, 20, 30, 60, 70, 90}));
  for (NodeId sender : arrival_order) EXPECT_TRUE(node.is_logical(sender));
  EXPECT_FALSE(node.is_logical(50));  // the owner is never its own neighbor
  EXPECT_FALSE(node.is_logical(40));
}

TEST_F(ControllerTest, NoNeighborsMeansZeroRange) {
  NodeController node(0, mst_, cost_, ControllerConfig{});
  node.on_hello_send(0.5, {0.0, 0.0}, 1);
  EXPECT_TRUE(node.logical_neighbors().empty());
  EXPECT_DOUBLE_EQ(node.extended_range(), 0.0);
}

TEST_F(ControllerTest, StaleNeighborsExpireOutOfSelection) {
  ControllerConfig config;
  config.view_expiry = 2.0;
  NodeController node(0, mst_, cost_, config);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.5, {0.0, 0.0}, 1);
  EXPECT_FALSE(node.logical_neighbors().empty());
  node.on_hello_send(5.0, {0.0, 0.0}, 2);  // neighbor last heard 4.9 s ago
  EXPECT_TRUE(node.logical_neighbors().empty());
}

TEST_F(ControllerTest, VersionedRefreshKeepsPriorSelectionWhenMissing) {
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 3;
  NodeController node(0, mst_, cost_, config);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);   // version 0: no v-1 to decide on
  node.on_hello_send(1.2, {0.0, 0.0}, 1);   // decides with version 0
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
  // A refresh pinned to a version nobody advertised is a no-op.
  node.refresh_selection_versioned(2.0, 77);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
}

TEST_F(ControllerTest, WeakModeUsesIntervalRange) {
  // Under weak consistency the range covers every stored position of the
  // selected neighbor (conservative decision, Section 4.2).
  ControllerConfig config;
  config.mode = ConsistencyMode::kWeak;
  config.history_limit = 2;
  NodeController node(0, mst_, cost_, config);
  node.on_hello_receive(hello(1, {4.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_receive(hello(1, {6.0, 0.0}, 2, 1.1), 1.1);
  node.on_hello_send(1.5, {0.0, 0.0}, 1);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
  EXPECT_NEAR(node.actual_range(), 6.0, 1e-6);
}

TEST_F(ControllerTest, InterleavedRefreshesShareScratchWithoutCrossTalk) {
  // Every controller a thread refreshes assembles its view in one
  // per-thread selection scratch. A crowded weak-mode neighborhood (60
  // members, interval views) and a sparse latest-mode one (2 members out
  // of each other's range) refreshing alternately must each select
  // exactly what they select alone: a link flag, id or output index left
  // behind by one refresh would leak into the other's selection.
  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kCrowd = 60;
  util::Xoshiro256 rng(4242);
  std::vector<std::vector<Vec2>> crowd(kRounds);
  for (auto& round : crowd) {
    for (std::size_t m = 0; m < kCrowd; ++m) {
      round.push_back({rng.uniform(-170.0, 170.0), rng.uniform(-170.0, 170.0)});
    }
  }

  ControllerConfig sparse_config;
  sparse_config.recompute_cache = false;
  ControllerConfig crowd_config = sparse_config;
  crowd_config.mode = ConsistencyMode::kWeak;
  crowd_config.history_limit = 2;

  using Selections = std::vector<std::vector<NodeId>>;
  // One round: the neighbors' Hellos, then the owner's, which refreshes.
  const auto crowd_round = [&](NodeController& node, std::size_t round,
                               Selections& out) {
    const double t = static_cast<double>(round) + 0.5;
    for (std::size_t m = 0; m < kCrowd; ++m) {
      node.on_hello_receive(hello(100 + m, crowd[round][m], round + 1, t), t);
    }
    node.on_hello_send(t + 0.1, {0.0, 0.0}, round + 1);
    out.push_back(node.logical_neighbors());
  };
  const auto sparse_round = [&](NodeController& node, std::size_t round,
                                Selections& out) {
    const double t = static_cast<double>(round) + 0.5;
    node.on_hello_receive(hello(1, {-200.0, t}, round + 1, t), t);
    node.on_hello_receive(hello(2, {200.0, -t}, round + 1, t), t);
    node.on_hello_send(t + 0.1, {0.0, 0.0}, round + 1);
    out.push_back(node.logical_neighbors());
  };

  Selections crowd_alone;
  Selections sparse_alone;
  {
    NodeController crowded(0, mst_, cost_, crowd_config);
    for (std::size_t round = 0; round < kRounds; ++round) {
      crowd_round(crowded, round, crowd_alone);
    }
    NodeController sparse(500, mst_, cost_, sparse_config);
    for (std::size_t round = 0; round < kRounds; ++round) {
      sparse_round(sparse, round, sparse_alone);
    }
  }

  Selections crowd_interleaved;
  Selections sparse_interleaved;
  NodeController crowded(0, mst_, cost_, crowd_config);
  NodeController sparse(500, mst_, cost_, sparse_config);
  for (std::size_t round = 0; round < kRounds; ++round) {
    crowd_round(crowded, round, crowd_interleaved);
    sparse_round(sparse, round, sparse_interleaved);
  }

  EXPECT_EQ(crowd_interleaved, crowd_alone);
  EXPECT_EQ(sparse_interleaved, sparse_alone);
  // Both neighborhoods are non-trivial: the crowd's MST prunes, and the
  // sparse pair, with no link between them, is always kept.
  for (const auto& chosen : crowd_alone) {
    EXPECT_GT(chosen.size(), 0u);
    EXPECT_LT(chosen.size(), kCrowd);
  }
  for (const auto& chosen : sparse_alone) {
    EXPECT_EQ(chosen, (std::vector<NodeId>{1, 2}));
  }
}

TEST(CanDeliver, RequiresRangeAndLogicalOrPn) {
  const topology::DistanceCost cost;
  const topology::NoneProtocol none;
  ControllerConfig plain;
  ControllerConfig pn;
  pn.accept_physical_neighbors = true;

  NodeController sender(0, none, cost, plain);
  sender.on_hello_receive({1, {{5.0, 0.0}, 1, 0.1}}, 0.1);
  sender.on_hello_send(0.5, {0.0, 0.0}, 1);  // logical = {1}, range 5

  NodeController receiver_plain(1, none, cost, plain);
  NodeController receiver_pn(2, none, cost, pn);

  EXPECT_TRUE(can_deliver(sender, receiver_plain, 4.0));
  EXPECT_FALSE(can_deliver(sender, receiver_plain, 6.0)) << "out of range";
  // Node 2 is not in the sender's logical set: dropped unless PN.
  EXPECT_TRUE(can_deliver(sender, receiver_pn, 4.0));
  NodeController receiver2_plain(2, none, cost, plain);
  EXPECT_FALSE(can_deliver(sender, receiver2_plain, 4.0));
}

TEST(EffectiveSnapshot, MutualLogicalLinksWithinRange) {
  const topology::DistanceCost cost;
  const topology::NoneProtocol none;
  ControllerConfig config;
  std::vector<NodeController> nodes;
  nodes.emplace_back(0, none, cost, config);
  nodes.emplace_back(1, none, cost, config);
  nodes.emplace_back(2, none, cost, config);
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}, {300, 0}};
  // 0 and 1 hear each other; 2 is isolated (never heard, empty logical set).
  nodes[0].on_hello_receive({1, {{10, 0}, 1, 0.1}}, 0.1);
  nodes[1].on_hello_receive({0, {{0, 0}, 1, 0.1}}, 0.1);
  nodes[0].on_hello_send(0.5, positions[0], 1);
  nodes[1].on_hello_send(0.5, positions[1], 1);
  nodes[2].on_hello_send(0.5, positions[2], 1);
  const auto g = effective_snapshot(nodes, positions);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

}  // namespace
}  // namespace mstc::core
