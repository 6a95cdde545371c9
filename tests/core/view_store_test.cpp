#include "core/view_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <vector>

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

// ---------------------------------------------------------------------------
// Differential test: the flat slot/record table against the layout it
// replaced — a sorted vector of {sender, own history vector} entries, whose
// record/expire/generation rules are kept here verbatim as the reference.

bool same_bits(const topology::VersionedPosition& a,
               const topology::VersionedPosition& b) {
  return std::bit_cast<std::uint64_t>(a.position.x) ==
             std::bit_cast<std::uint64_t>(b.position.x) &&
         std::bit_cast<std::uint64_t>(a.position.y) ==
             std::bit_cast<std::uint64_t>(b.position.y);
}

class EntryVectorStore {
 public:
  struct Entry {
    NodeId sender = 0;
    std::vector<topology::VersionedPosition> history;
  };

  EntryVectorStore(NodeId owner, std::size_t history_limit, double expiry)
      : owner_(owner), history_limit_(history_limit), expiry_(expiry) {}

  void record(const HelloRecord& hello) {
    auto slot = std::lower_bound(entries_.begin(), entries_.end(),
                                 hello.sender, sender_less);
    if (slot == entries_.end() || slot->sender != hello.sender) {
      slot = entries_.insert(slot,
                             Entry{.sender = hello.sender, .history = {}});
      slot->history.reserve(history_limit_ + 1);
    }
    auto& history = slot->history;
    const auto insert_at = std::find_if(
        history.begin(), history.end(),
        [&](const topology::VersionedPosition& existing) {
          return existing.version <= hello.advertised.version;
        });
    bool changed = false;
    if (insert_at != history.end() &&
        insert_at->version == hello.advertised.version) {
      changed = tracks(*insert_at) && !same_bits(*insert_at, hello.advertised);
      *insert_at = hello.advertised;
    } else {
      const auto at = history.insert(insert_at, hello.advertised);
      changed = insertion_changes(
          history, static_cast<std::size_t>(at - history.begin()));
      if (history.size() > history_limit_) history.resize(history_limit_);
    }
    if (changed) ++generation_;
    if (hello.sender != owner_) {
      oldest_front_ = std::min(oldest_front_, history.front().send_time);
    }
  }

  void expire(double now) {
    const double cutoff = now - expiry_;
    if (cutoff <= oldest_front_) return;
    double oldest = std::numeric_limits<double>::infinity();
    bool changed = false;
    std::erase_if(entries_, [&](const Entry& entry) {
      const bool stale =
          entry.sender != owner_ &&
          (entry.history.empty() || entry.history.front().send_time < cutoff);
      if (stale) {
        changed = changed || std::ranges::any_of(entry.history,
                                                 [&](const auto& record) {
                                                   return tracks(record);
                                                 });
      } else if (entry.sender != owner_) {
        oldest = std::min(oldest, entry.history.front().send_time);
      }
      return stale;
    });
    if (changed) ++generation_;
    oldest_front_ = oldest;
  }

  void track_version(std::optional<std::uint64_t> version) {
    if (version == tracked_version_) return;
    tracked_version_ = version;
    ++generation_;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  static bool sender_less(const Entry& entry, NodeId sender) {
    return entry.sender < sender;
  }
  [[nodiscard]] bool tracks(const topology::VersionedPosition& record) const {
    return !tracked_version_ || record.version == *tracked_version_;
  }
  [[nodiscard]] bool insertion_changes(
      std::span<const topology::VersionedPosition> history,
      std::size_t at) const {
    const bool overflow = history.size() > history_limit_;
    if (overflow && at + 1 == history.size()) return false;
    if (tracked_version_) {
      return tracks(history[at]) || (overflow && tracks(history.back()));
    }
    if (!overflow) return true;
    for (std::size_t i = at; i + 1 < history.size(); ++i) {
      if (!same_bits(history[i], history[i + 1])) return true;
    }
    return false;
  }

  NodeId owner_;
  std::size_t history_limit_;
  double expiry_;
  std::uint64_t generation_ = 0;
  std::optional<std::uint64_t> tracked_version_;
  std::vector<Entry> entries_;
  double oldest_front_ = std::numeric_limits<double>::infinity();
};

bool same_record(const topology::VersionedPosition& a,
                 const topology::VersionedPosition& b) {
  return same_bits(a, b) && a.version == b.version &&
         std::bit_cast<std::uint64_t>(a.send_time) ==
             std::bit_cast<std::uint64_t>(b.send_time);
}

/// Expects `store` to hold exactly what `reference` holds, and each id in
/// `absent` that the reference lacks to read as unknown.
void expect_same_store(const LocalViewStore& store,
                       const EntryVectorStore& reference,
                       std::span<const NodeId> absent = {}) {
  const auto& entries = reference.entries();
  for (const NodeId id : absent) {
    if (std::ranges::any_of(entries,
                            [&](const auto& e) { return e.sender == id; })) {
      continue;
    }
    ASSERT_TRUE(store.records(id).empty()) << "sender " << id;
    ASSERT_FALSE(store.latest(id).has_value()) << "sender " << id;
  }
  ASSERT_EQ(store.slots().size(), entries.size());
  std::vector<NodeId> neighbors;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const NodeId sender = entries[i].sender;
    ASSERT_EQ(store.slots()[i].sender, sender) << "slot " << i;
    const auto window = store.history_at(i);
    ASSERT_EQ(window.size(), entries[i].history.size()) << "sender " << sender;
    ASSERT_EQ(store.records(sender).data(), window.data());
    for (std::size_t k = 0; k < window.size(); ++k) {
      ASSERT_TRUE(same_record(window[k], entries[i].history[k]))
          << "sender " << sender << " record " << k;
      const auto at = store.record_at(sender, window[k].version);
      ASSERT_EQ(at.size(), 1u);
      ASSERT_EQ(at.data(), &window[k]);
    }
    if (sender != store.owner()) neighbors.push_back(sender);
  }
  EXPECT_EQ(store.neighbors(), neighbors);
  EXPECT_EQ(store.neighbor_count(), neighbors.size());
  EXPECT_EQ(store.generation(), reference.generation());
}

/// Seeded random Hello traffic at one history limit: in-order,
/// out-of-order, duplicate and older-than-window records from the senders
/// `ids` (the owner, ids[owner_index], among them), joins and expiries as
/// senders fall silent, tracked-version switches, and positions drawn from
/// a set that holds both 0.0 and -0.0, so only the bits tell records apart.
/// The store starts empty and is compared before the first record too.
void run_differential(std::size_t history_limit, std::uint64_t seed,
                      std::span<const NodeId> ids, std::size_t owner_index) {
  const NodeId owner = ids[owner_index];
  const std::size_t senders = ids.size();
  constexpr double kExpiry = 3.0;
  LocalViewStore store(owner, history_limit, kExpiry);
  EntryVectorStore reference(owner, history_limit, kExpiry);
  // Every sender, and an id past 32 bits that no store can hold.
  std::vector<NodeId> probes(ids.begin(), ids.end());
  probes.push_back(NodeId{1} << 32);
  expect_same_store(store, reference, probes);
  store.expire(1.0);
  reference.expire(1.0);
  expect_same_store(store, reference, probes);
  std::mt19937_64 rng(seed);
  const auto uniform = [&](std::uint64_t n) { return rng() % n; };
  const double coords[] = {0.0, -0.0, 1.0, 250.0};
  std::map<NodeId, std::uint64_t> newest;  // highest version sent so far
  double now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(::testing::Message() << "limit " << history_limit << " seed "
                                      << seed << " step " << step);
    const std::uint64_t op = uniform(100);
    if (op < 70) {
      // Quiet senders (the upper half of ids) speak rarely, so they join
      // and expire.
      std::size_t index = uniform(senders);
      if (index >= senders / 2 && uniform(4) != 0) index = owner_index;
      const NodeId sender = ids[index];
      std::uint64_t& top = newest[sender];
      std::uint64_t version = top + 1;
      const std::uint64_t kind = uniform(10);
      if (kind < 5 || top == 0) {
        top = version;  // in order
      } else if (kind < 7) {
        // Out of order: one or two versions behind the newest.
        version = top - 1 - uniform(std::min<std::uint64_t>(top, 2));
      } else if (kind < 9) {
        version = top;  // duplicate of the newest
      } else {
        // Older than a full window (or unsigned-clamped to version 0).
        const std::uint64_t back = history_limit + uniform(3);
        version = top > back ? top - back : 0;
      }
      const geom::Vec2 position{coords[uniform(4)], coords[uniform(4)]};
      const HelloRecord hello{sender, {position, version, now}};
      store.record(hello);
      reference.record(hello);
    } else if (op < 90) {
      now += 0.05 * static_cast<double>(uniform(20));
      store.expire(now);
      reference.expire(now);
    } else {
      std::optional<std::uint64_t> version;
      if (uniform(3) != 0) version = uniform(newest[owner] + 2);
      store.track_version(version);
      reference.track_version(version);
    }
    expect_same_store(store, reference, probes);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LocalViewStore, MatchesEntryVectorReferenceAtEveryStride) {
  constexpr NodeId kMaxId = std::numeric_limits<std::uint32_t>::max();
  // A dozen small ids; the 32-bit extremes, the owner among them; a store
  // that only ever holds its owner's slot; and one other sender that joins
  // and expires next to an owner with id 0.
  const std::vector<NodeId> dozen{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const std::vector<NodeId> extremes{0, 1, 7, NodeId{1} << 31, kMaxId - 1,
                                     kMaxId};
  const std::vector<NodeId> owner_only{kMaxId};
  const std::vector<NodeId> pair{0, kMaxId};
  const struct {
    const std::vector<NodeId>* ids;
    std::size_t owner_index;
  } fleets[] = {{&dozen, 5}, {&extremes, 5}, {&extremes, 0},
                {&owner_only, 0}, {&pair, 0}};
  for (const auto& fleet : fleets) {
    for (const std::size_t history_limit : {1u, 2u, 3u}) {
      for (const std::uint64_t seed : {1u, 2u, 20040426u}) {
        SCOPED_TRACE(::testing::Message()
                     << "owner " << (*fleet.ids)[fleet.owner_index]
                     << " of " << fleet.ids->size());
        run_differential(history_limit, seed, *fleet.ids, fleet.owner_index);
        if (HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace mstc::core
