#include "core/view_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mstc::core {
namespace {

HelloRecord hello(NodeId sender, double x, double y, std::uint64_t version,
                  double time) {
  return HelloRecord{sender, {{x, y}, version, time}};
}

TEST(LocalViewStore, RecordsAndRetrievesLatest) {
  LocalViewStore store(0, 2, 10.0);
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.record(hello(1, 6.0, 0.0, 2, 2.0));
  const auto latest = store.latest(1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  EXPECT_DOUBLE_EQ(latest->position.x, 6.0);
}

TEST(LocalViewStore, HistoryIsNewestFirstAndCapped) {
  LocalViewStore store(0, 2, 100.0);
  store.record(hello(1, 1.0, 0.0, 1, 1.0));
  store.record(hello(1, 2.0, 0.0, 2, 2.0));
  store.record(hello(1, 3.0, 0.0, 3, 3.0));
  const auto history = store.history(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].version, 3u);
  EXPECT_EQ(history[1].version, 2u);
}

TEST(LocalViewStore, OutOfOrderReceptionIsSorted) {
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(1, 2.0, 0.0, 2, 2.0));
  store.record(hello(1, 1.0, 0.0, 1, 1.0));  // late arrival of older version
  const auto history = store.history(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].version, 2u);
  EXPECT_EQ(history[1].version, 1u);
}

TEST(LocalViewStore, DuplicateVersionRefreshesInPlace) {
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(1, 1.0, 0.0, 1, 1.0));
  store.record(hello(1, 9.0, 9.0, 1, 1.5));
  const auto history = store.history(1);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_DOUBLE_EQ(history[0].position.x, 9.0);
}

TEST(LocalViewStore, AtVersionLookup) {
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(1, 1.0, 0.0, 7, 1.0));
  store.record(hello(1, 2.0, 0.0, 8, 2.0));
  EXPECT_TRUE(store.at_version(1, 7).has_value());
  EXPECT_TRUE(store.at_version(1, 8).has_value());
  EXPECT_FALSE(store.at_version(1, 9).has_value());
  EXPECT_FALSE(store.at_version(2, 7).has_value());
  EXPECT_DOUBLE_EQ(store.at_version(1, 7)->position.x, 1.0);
}

TEST(LocalViewStore, ExpireDropsStaleNeighborsButNotOwner) {
  LocalViewStore store(0, 2, 3.0);
  store.record(hello(0, 0.0, 0.0, 1, 0.5));  // own record
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.record(hello(2, 9.0, 0.0, 1, 9.5));
  store.expire(10.0);  // cutoff 7.0: neighbor 1 stale, neighbor 2 fresh
  EXPECT_FALSE(store.latest(1).has_value());
  EXPECT_TRUE(store.latest(2).has_value());
  EXPECT_TRUE(store.latest(0).has_value()) << "owner is never expired";
}

TEST(LocalViewStore, NeighborsExcludesOwner) {
  LocalViewStore store(7, 1, 100.0);
  store.record(hello(7, 0.0, 0.0, 1, 1.0));
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.record(hello(2, 6.0, 0.0, 1, 1.0));
  auto ids = store.neighbors();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(store.neighbor_count(), 2u);
}

TEST(LocalViewStore, UnknownSenderYieldsEmpty) {
  const LocalViewStore store(0, 2, 10.0);
  EXPECT_TRUE(store.history(5).empty());
  EXPECT_FALSE(store.latest(5).has_value());
}

TEST(LocalViewStore, GenerationFollowsMembersAndPositionBits) {
  LocalViewStore store(0, 1, 3.0);
  const std::uint64_t empty = store.generation();
  store.record(hello(0, 0.0, 0.0, 1, 0.5));
  store.record(hello(1, 0.0, 5.0, 1, 1.0));
  const std::uint64_t joined = store.generation();
  EXPECT_EQ(joined, empty + 2) << "each join is a change";

  store.record(hello(1, 0.0, 5.0, 2, 2.0));  // same bits, new version
  store.record(hello(1, 0.0, 5.0, 2, 2.1));  // duplicate delivery
  store.expire(2.5);                         // nothing stale
  EXPECT_EQ(store.generation(), joined);

  store.record(hello(1, -0.0, 5.0, 3, 3.0));  // == 0.0, but other bits
  EXPECT_EQ(store.generation(), joined + 1);
  store.record(hello(1, -0.0, 5.0, 3, 3.1));  // duplicate, same bits
  store.record(hello(1, 1.0, 5.0, 3, 3.2));   // duplicate, moved
  EXPECT_EQ(store.generation(), joined + 2);
  store.expire(7.0);  // neighbor 1 expires
  EXPECT_EQ(store.generation(), joined + 3);
}

TEST(LocalViewStore, GenerationFollowsTheWholeHistoryWindow) {
  LocalViewStore store(0, 2, 100.0);
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  const std::uint64_t joined = store.generation();
  store.record(hello(1, 5.0, 0.0, 2, 2.0));  // window grows: a change
  EXPECT_EQ(store.generation(), joined + 1);
  store.record(hello(1, 5.0, 0.0, 3, 3.0));  // full, rotates onto equal bits
  EXPECT_EQ(store.generation(), joined + 1);
  store.record(hello(1, 6.0, 0.0, 4, 4.0));  // {6, 5}
  store.record(hello(1, 6.0, 0.0, 5, 5.0));  // {6, 6}: the 5 left
  EXPECT_EQ(store.generation(), joined + 3);
  store.record(hello(1, 7.0, 0.0, 1, 5.1));  // older than the window
  EXPECT_EQ(store.generation(), joined + 3);
}

TEST(LocalViewStore, TrackedVersionGenerationIgnoresOtherVersions) {
  LocalViewStore store(0, 2, 100.0);
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.track_version(1);
  const std::uint64_t tracked = store.generation();
  store.track_version(1);
  EXPECT_EQ(store.generation(), tracked);

  store.record(hello(1, 9.0, 0.0, 2, 2.0));  // moved, but at version 2
  store.record(hello(2, 3.0, 0.0, 2, 2.0));  // joined without version 1
  EXPECT_EQ(store.generation(), tracked);
  store.record(hello(2, 3.0, 0.0, 1, 2.1));  // late record at version 1
  EXPECT_EQ(store.generation(), tracked + 1);
  store.record(hello(1, 9.0, 0.0, 3, 3.0));  // evicts sender 1's version 1
  EXPECT_EQ(store.generation(), tracked + 2);

  store.track_version(std::nullopt);
  EXPECT_EQ(store.generation(), tracked + 3);
}

}  // namespace
}  // namespace mstc::core
