// Recompute-cache suite.
//
// The controller skips the protocol run when its view store's generation
// is unchanged since the last selection: no member joined or expired and
// no position bits the view reads changed. These tests pin the
// invalidation contract: every event that can change the assembled view (a
// Hello advertising a moved position, a neighbor expiring, the history
// window rotating, the owner moving, the pinned version's records coming or
// going) must force a recompute, while a byte-identical store must skip.
// Counted via the topology_recomputes / topology_recompute_skips probe
// counters.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/controller.hpp"
#include "obs/probe.hpp"

namespace mstc::core {
namespace {

using geom::Vec2;

HelloRecord hello(NodeId sender, Vec2 p, std::uint64_t version, double time) {
  return HelloRecord{sender, {p, version, time}};
}

class RecomputeCacheTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::uint64_t recomputes() const {
    return observation_.counters.total(obs::Counter::kTopologyRecomputes);
  }
  [[nodiscard]] std::uint64_t skips() const {
    return observation_.counters.total(obs::Counter::kTopologyRecomputeSkips);
  }

  topology::DistanceCost cost_;
  topology::RngProtocol rng_;
  obs::RunObservation observation_;
  obs::Probe probe_{&observation_};
};

TEST_F(RecomputeCacheTest, UnchangedStoreSkipsAndPreservesSelection) {
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  ASSERT_EQ(recomputes(), 1u);
  ASSERT_EQ(skips(), 0u);
  const auto logical = node.logical_neighbors();
  const double range = node.actual_range();

  // Nothing recorded in between: both refreshes must hit the cache and
  // leave the published selection bit-identical.
  node.refresh_selection(0.3);
  node.refresh_selection(0.4);
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), 2u);
  EXPECT_EQ(node.logical_neighbors(), logical);
  EXPECT_DOUBLE_EQ(node.actual_range(), range);
}

TEST_F(RecomputeCacheTest, NewVersionWithSamePositionBitsStillSkips) {
  // The generation follows position bits, not versions: a static neighbor
  // re-advertising the same coordinates must not bust the cache (this is
  // what makes static fleets skip ~100% of refreshes).
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 2, 1.1), 1.1);
  node.on_hello_send(1.2, {0.0, 0.0}, 2);  // own bits unchanged too
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), 1u);
}

TEST_F(RecomputeCacheTest, MovedNeighborForcesRecompute) {
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  ASSERT_EQ(recomputes(), 1u);

  node.on_hello_receive(hello(1, {7.0, 0.0}, 2, 1.1), 1.1);
  node.refresh_selection(1.2);
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_EQ(skips(), 0u);
  EXPECT_NEAR(node.actual_range(), 7.0, 1e-6);
}

TEST_F(RecomputeCacheTest, NeighborExpiryForcesRecompute) {
  ControllerConfig config;
  config.view_expiry = 2.0;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  ASSERT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
  ASSERT_EQ(recomputes(), 1u);

  // The neighbor ages out; the member set changes, so the refresh
  // must recompute and drop it — a skip here would publish a stale link.
  node.refresh_selection(5.0);
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_EQ(skips(), 0u);
  EXPECT_TRUE(node.logical_neighbors().empty());
}

TEST_F(RecomputeCacheTest, HistoryRotationForcesRecomputeInWeakMode) {
  ControllerConfig config;
  config.mode = ConsistencyMode::kWeak;
  config.history_limit = 2;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {4.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_receive(hello(1, {6.0, 0.0}, 2, 1.1), 1.1);
  node.on_hello_send(1.2, {0.0, 0.0}, 1);
  ASSERT_EQ(recomputes(), 1u);
  ASSERT_NEAR(node.actual_range(), 6.0, 1e-6);  // interval covers {4, 6}

  // A third record pushes {4.0, 0.0} out of the window: even though the
  // newest two positions include one already seen, the stored set — and
  // hence the interval view — changed, so the cache must miss.
  node.on_hello_receive(hello(1, {6.0, 0.0}, 3, 2.1), 2.1);
  node.on_hello_send(2.2, {0.0, 0.0}, 2);
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_NEAR(node.actual_range(), 6.0, 1e-6);  // interval now {6, 6}
}

TEST_F(RecomputeCacheTest, OwnerPositionChangeForcesRecompute) {
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  ASSERT_EQ(recomputes(), 1u);

  node.on_hello_send(1.2, {1.0, 0.0}, 2);  // the owner itself moved
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_EQ(skips(), 0u);
  EXPECT_NEAR(node.actual_range(), 4.0, 1e-6);
}

TEST_F(RecomputeCacheTest, CacheOffRecomputesEveryRefresh) {
  ControllerConfig config;
  config.recompute_cache = false;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  node.refresh_selection(0.3);
  node.refresh_selection(0.4);
  EXPECT_EQ(recomputes(), 3u);
  EXPECT_EQ(skips(), 0u);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
}

TEST_F(RecomputeCacheTest, VersionedRefreshSkipsOnIdenticalPinnedInputs) {
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 3;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);  // version 0: nothing to decide
  node.on_hello_send(1.2, {0.0, 0.0}, 1);  // decides pinned to version 0
  ASSERT_EQ(recomputes(), 1u);

  // Same pinned version, unchanged store: skip. A missing version stays a
  // no-op and must not touch the counters or the cached selection.
  node.refresh_selection_versioned(1.3, 0);
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), 1u);
  node.refresh_selection_versioned(1.4, 77);
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), 1u);
  node.refresh_selection_versioned(1.5, 0);
  EXPECT_EQ(skips(), 2u);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
}

TEST_F(RecomputeCacheTest, MovingNeighborNeverDisengagesTheCache) {
  // Mobile-fleet shape: every refresh misses because the neighbor moves.
  // The probe costs O(1), so there is no bypass: a later byte-identical
  // refresh still skips, however many misses came before.
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  double t = 0.1;
  std::uint64_t version = 1;
  node.on_hello_receive(hello(1, {5.0, 0.0}, version, t), t);
  node.on_hello_send(t + 0.05, {0.0, 0.0}, version);
  for (int i = 0; i < 20; ++i) {
    t += 1.0;
    ++version;
    node.on_hello_receive(hello(1, {5.0 + 0.001 * (i + 1), 0.0}, version, t),
                          t);
    node.refresh_selection(t + 0.05);
  }
  ASSERT_EQ(skips(), 0u);
  const std::uint64_t before = recomputes();
  node.refresh_selection(t + 0.1);
  node.refresh_selection(t + 0.2);
  EXPECT_EQ(skips(), 2u);
  EXPECT_EQ(recomputes(), before);
}

TEST_F(RecomputeCacheTest, StaticNeighborhoodSkipsEveryRefreshAfterTheFirst) {
  NodeController node(0, rng_, cost_, ControllerConfig{});
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 1);
  ASSERT_EQ(recomputes(), 1u);
  const std::uint32_t refreshes = 20;
  for (std::uint32_t i = 0; i < refreshes; ++i) {
    node.refresh_selection(0.3 + 0.01 * i);
  }
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), refreshes);
}

TEST_F(RecomputeCacheTest, EvictedPinnedVersionForcesRecompute) {
  // A static neighbor re-advertises the same bits, so the position
  // sequence never changes; yet once its record at the pinned version
  // leaves the window, the versioned view loses it. The cache must miss.
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 2;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);
  node.on_hello_send(1.2, {0.0, 0.0}, 1);  // decides pinned to version 0
  ASSERT_EQ(recomputes(), 1u);
  ASSERT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));

  node.on_hello_receive(hello(1, {5.0, 0.0}, 1, 1.1), 1.3);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 2, 2.1), 2.1);  // evicts v0
  node.refresh_selection_versioned(2.2, 0);
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_EQ(skips(), 0u);
  EXPECT_TRUE(node.logical_neighbors().empty());
}

TEST_F(RecomputeCacheTest, LateRecordAtPinnedVersionForcesRecompute) {
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 3;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);
  node.on_hello_send(1.2, {0.0, 0.0}, 1);  // version 0: no neighbor yet
  ASSERT_EQ(recomputes(), 1u);
  ASSERT_TRUE(node.logical_neighbors().empty());

  // The neighbor's version-0 Hello arrives after the decision.
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.3), 1.3);
  node.refresh_selection_versioned(1.4, 0);
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_EQ(node.logical_neighbors(), (std::vector<NodeId>{1}));
}

TEST_F(RecomputeCacheTest, VersionedRefreshIgnoresRecordsAtOtherVersions) {
  // A neighbor that moves and re-advertises under a newer version leaves
  // the view pinned to the old version untouched: the cache still skips.
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 3;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);
  node.on_hello_send(1.2, {0.0, 0.0}, 1);  // decides pinned to version 0
  ASSERT_EQ(recomputes(), 1u);

  node.on_hello_receive(hello(1, {9.0, 0.0}, 1, 1.1), 1.3);
  node.on_hello_receive(hello(2, {3.0, 0.0}, 1, 1.1), 1.3);  // joins at v1
  node.refresh_selection_versioned(1.4, 0);
  EXPECT_EQ(recomputes(), 1u);
  EXPECT_EQ(skips(), 1u);
  EXPECT_NEAR(node.actual_range(), 5.0, 1e-6);
}

TEST_F(RecomputeCacheTest, SwitchingViewKindForcesRecompute) {
  // The latest view and a versioned view of the same store differ, so a
  // refresh of the other kind must never be served from the cache.
  ControllerConfig config;
  config.mode = ConsistencyMode::kProactive;
  config.history_limit = 3;
  NodeController node(0, rng_, cost_, config);
  node.attach_probe(&probe_);
  node.on_hello_receive(hello(1, {5.0, 0.0}, 0, 0.1), 0.1);
  node.on_hello_send(0.2, {0.0, 0.0}, 0);
  node.on_hello_send(1.2, {0.0, 0.0}, 1);  // pinned to version 0
  node.on_hello_receive(hello(1, {7.0, 0.0}, 1, 1.3), 1.3);
  ASSERT_EQ(recomputes(), 1u);

  node.refresh_selection(1.4);  // latest view: the neighbor sits at 7
  EXPECT_EQ(recomputes(), 2u);
  EXPECT_NEAR(node.actual_range(), 7.0, 1e-6);
  node.refresh_selection_versioned(1.5, 0);  // back to 5
  EXPECT_EQ(recomputes(), 3u);
  EXPECT_NEAR(node.actual_range(), 5.0, 1e-6);
  EXPECT_EQ(skips(), 0u);
}

// Fuzzes one cached and one uncached controller with the same Hello stream
// and refreshes. Versions follow a shared round counter, as Hello versions
// do in a run, and positions come from a three-point alphabet, so repeated
// bits, history rotations, late and duplicate versions, evictions of the
// pinned version, expiry and re-joining all occur. Every refresh must
// publish identical selections.
void expect_cached_matches_uncached(ConsistencyMode mode,
                                    std::size_t history_limit,
                                    std::uint32_t seed) {
  const topology::DistanceCost cost;
  const topology::RngProtocol protocol;
  ControllerConfig config;
  config.mode = mode;
  config.history_limit = history_limit;
  config.view_expiry = 2.5;
  NodeController cached(0, protocol, cost, config);
  config.recompute_cache = false;
  NodeController uncached(0, protocol, cost, config);
  obs::RunObservation observation;
  const obs::Probe probe(&observation);
  cached.attach_probe(&probe);

  std::mt19937 rng(seed);
  const geom::Vec2 spots[] = {{0.0, 0.0}, {60.0, 10.0}, {-40.0, 80.0}};
  const auto pick = [&](std::uint32_t n) { return rng() % n; };
  // A version up to `lag` rounds behind the owner's and `lead` ahead
  // (neighbors' Hello clocks drift).
  std::uint64_t round = 0;
  const auto version_near = [&](std::uint32_t lag, std::uint32_t lead) {
    return round + lead - std::min<std::uint64_t>(round + lead,
                                                  pick(lag + lead + 1));
  };
  double now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    now += 0.05 * static_cast<double>(pick(10));
    const geom::Vec2 spot = spots[pick(3)];
    switch (pick(6)) {
      case 0:
        ++round;
        cached.on_hello_send(now, spot, round);
        uncached.on_hello_send(now, spot, round);
        break;
      case 1:
      case 2:
      case 3: {
        const HelloRecord record{static_cast<NodeId>(1 + pick(3)),
                                 {spot, version_near(1, 1), now}};
        cached.on_hello_receive(record, now);
        uncached.on_hello_receive(record, now);
        break;
      }
      case 4:
        cached.refresh_selection(now);
        uncached.refresh_selection(now);
        break;
      default: {
        const std::uint64_t version = version_near(3, 0);
        cached.refresh_selection_versioned(now, version);
        uncached.refresh_selection_versioned(now, version);
        break;
      }
    }
    ASSERT_EQ(cached.logical_neighbors(), uncached.logical_neighbors())
        << "step " << step;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cached.actual_range()),
              std::bit_cast<std::uint64_t>(uncached.actual_range()))
        << "step " << step;
  }
  // The stream must exercise the cache, not only its misses.
  EXPECT_GT(observation.counters.total(obs::Counter::kTopologyRecomputeSkips),
            0u);
}

TEST(RecomputeCacheFuzz, CachedControllerMatchesUncached) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    expect_cached_matches_uncached(ConsistencyMode::kLatest, 1, seed);
    expect_cached_matches_uncached(ConsistencyMode::kLatest, 2, seed);
    expect_cached_matches_uncached(ConsistencyMode::kWeak, 2, seed);
    expect_cached_matches_uncached(ConsistencyMode::kWeak, 3, seed);
    expect_cached_matches_uncached(ConsistencyMode::kProactive, 2, seed);
    expect_cached_matches_uncached(ConsistencyMode::kProactive, 3, seed);
  }
}

}  // namespace
}  // namespace mstc::core
