// Differential test of ViewGraph::assign, which evaluates each
// neighbor-neighbor link on its first read: every accessor, for every
// ordered pair read in shuffled order, must return exactly what the eager
// pair pass returned when it evaluated all pairs up front. That pass is
// kept below, verbatim, as the oracle.
//
// Views come from tests/support/view_fixtures.hpp: point views, interval
// views with k = 2 and 3, stale members beyond the normal range,
// co-located members, owner-only and one-member views, and members placed
// at exactly the normal range from one another in random directions, so
// the squared-distance pre-filter's margin band is hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/consistency.hpp"
#include "support/view_fixtures.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace mstc::topology {
namespace {

using fixtures::kRange;
using Versions = std::span<const VersionedPosition>;

// --- Oracle: the eager pair pass, verbatim ------------------------------

/// Conservative squared-distance rejection threshold (see
/// docs/PERFORMANCE.md): past it, the exact hypot check rejects too.
constexpr double kRejectMargin = 1.0 + 1e-12;

/// Assembles a ViewGraph from one chosen position list per view member
/// (owner first), evaluating every pair up front. Owner-neighbor links
/// always exist (the neighbor was heard); neighbor-neighbor links exist
/// only when their viewed distance can be certified <= normal_range (max
/// over version combinations).
void eager_assemble(NodeId owner, std::span<const NodeId> ids,
                    std::span<const Versions> versions, double normal_range,
                    const CostModel& cost, ViewGraph& out) {
  assert(!ids.empty() && ids[0] == owner);
  out.reset(owner, ids.size() - 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.set_id(i, ids[i]);
    // Representative: the newest stored position (front).
    out.set_representative(i, versions[i].front().position);
  }
  const double reject_sq = normal_range * normal_range * kRejectMargin;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool single_i = versions[i].size() == 1;
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (single_i && versions[j].size() == 1) {
        // Point-view fast path (latest / versioned views): one version per
        // member means d_min == d_max, so the distance, the cost-model call
        // and the CostKey are each computed once — bit-identical to the
        // general loop, which would evaluate them twice on equal inputs.
        const geom::Vec2 a = versions[i].front().position;
        const geom::Vec2 b = versions[j].front().position;
        // Squared-distance pre-filter: skips the libm hypot for the
        // ~40% of neighbor-neighbor pairs that are certainly out of
        // range (see kRejectMargin). Never applied to the owner row —
        // owner-neighbor links exist regardless of distance.
        if (i != 0 && geom::distance_sq(a, b) > reject_sq) continue;
        const double d = geom::distance(a, b);
        if (i != 0 && d > normal_range) continue;
        const CostKey key = CostKey::make(cost.cost(d), ids[i], ids[j]);
        out.set_link(i, j, d, d, key, key);
        continue;
      }
      // Interval views (weak consistency): pre-filter on the cheap
      // squared distances first; only combinations that might be in
      // range pay for the exact hypot sweep.
      if (i != 0) {
        double max_sq = 0.0;
        for (const auto& a : versions[i]) {
          for (const auto& b : versions[j]) {
            max_sq =
                std::max(max_sq, geom::distance_sq(a.position, b.position));
          }
        }
        if (max_sq > reject_sq) continue;
      }
      double d_min = std::numeric_limits<double>::infinity();
      double d_max = 0.0;
      for (const auto& a : versions[i]) {
        for (const auto& b : versions[j]) {
          const double d = geom::distance(a.position, b.position);
          d_min = std::min(d_min, d);
          d_max = std::max(d_max, d);
        }
      }
      // Owner-neighbor links exist by virtue of the received Hello;
      // neighbor-neighbor links must certainly be within range.
      if (i != 0 && d_max > normal_range) continue;
      out.set_link(i, j, d_min, d_max,
                   CostKey::make(cost.cost(d_min), ids[i], ids[j]),
                   CostKey::make(cost.cost(d_max), ids[i], ids[j]));
    }
  }
}

// --- Harness -------------------------------------------------------------

/// The view members of `tracks` as the builders hand them to assign:
/// owner first, then ascending ids, each history newest first and cut to
/// the `k` most recent versions.
struct Members {
  std::vector<NodeId> ids;
  std::vector<std::vector<VersionedPosition>> histories;
  std::vector<Versions> versions;
};

Members members_of(const fixtures::Tracks& tracks, std::size_t k) {
  std::vector<std::size_t> order(tracks.ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin() + 1, order.end(), [&](std::size_t a, std::size_t b) {
    return tracks.ids[a] < tracks.ids[b];
  });
  Members members;
  for (const std::size_t member : order) {
    members.ids.push_back(tracks.ids[member]);
    const auto& track = tracks.versions[member];
    auto& history = members.histories.emplace_back();
    for (std::size_t v = track.size(); v-- > 0 && history.size() < k;) {
      history.push_back({track[v], v + 1, static_cast<double>(v)});
    }
  }
  for (const auto& history : members.histories) {
    members.versions.emplace_back(history);
  }
  return members;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const CostKey& a, const CostKey& b) {
  return same_bits(a.value, b.value) && a.lo == b.lo && a.hi == b.hi;
}

/// Reads every accessor of every ordered pair of `lazy`, in an order
/// shuffled by `rng`, and compares it with `eager`. Costs and distances
/// are compared for linked pairs and the owner row; elsewhere they are
/// unspecified. Returns the number of linked neighbor-neighbor pairs.
std::size_t expect_same_view(const ViewGraph& eager, const ViewGraph& lazy,
                             util::Xoshiro256& rng) {
  EXPECT_EQ(lazy.node_count(), eager.node_count());
  const std::size_t n = eager.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lazy.id(i), eager.id(i));
    EXPECT_EQ(lazy.representative(i), eager.representative(i));
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) pairs.emplace_back(i, j);
  }
  for (std::size_t k = pairs.size(); k > 1; --k) {
    std::swap(pairs[k - 1], pairs[rng.uniform_below(k)]);
  }
  std::size_t linked = 0;
  for (const auto& [i, j] : pairs) {
    // Alternate which accessor reaches a deferred pair first.
    const bool values_first = rng.bernoulli(0.5);
    const CostKey cost_min = values_first ? lazy.cost_min(i, j) : CostKey{};
    const bool has = lazy.has_link(i, j);
    EXPECT_EQ(has, eager.has_link(i, j)) << "pair (" << i << ", " << j << ")";
    if (i == j) continue;
    if (i == 0 || j == 0) {
      EXPECT_TRUE(has) << "owner row (" << i << ", " << j << ")";
    }
    if (!has || !eager.has_link(i, j)) continue;
    if (i < j && i != 0) ++linked;
    EXPECT_TRUE(same_bits(values_first ? cost_min : lazy.cost_min(i, j),
                          eager.cost_min(i, j)))
        << "cost_min (" << i << ", " << j << ")";
    EXPECT_TRUE(same_bits(lazy.cost_max(i, j), eager.cost_max(i, j)))
        << "cost_max (" << i << ", " << j << ")";
    EXPECT_TRUE(same_bits(lazy.distance_min(i, j), eager.distance_min(i, j)))
        << "distance_min (" << i << ", " << j << ")";
    EXPECT_TRUE(same_bits(lazy.distance_max(i, j), eager.distance_max(i, j)))
        << "distance_max (" << i << ", " << j << ")";
  }
  // Every pair is now resolved, each exactly once.
  EXPECT_EQ(lazy.links_evaluated(), n * (n - 1) / 2);
  return linked;
}

/// Builds each tracks instance from `make` with `k` versions per member,
/// assembles it eagerly and through one reused `assign` view (so stale
/// state of a larger earlier view would show), and compares them under
/// both a distance and an energy cost model. Returns the linked
/// neighbor-neighbor pairs seen.
template <typename Make>
std::size_t expect_assign_matches_eager(Make make, std::size_t k,
                                        std::uint64_t seed, int trials) {
  const DistanceCost distance;
  const EnergyCost energy(4.0);
  util::Xoshiro256 rng(seed);
  ViewGraph lazy;
  std::size_t linked = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const fixtures::Tracks tracks = make(rng);
    const Members members = members_of(tracks, k);
    for (const CostModel* cost : std::array<const CostModel*, 2>{
             &distance, &energy}) {
      ViewGraph eager;
      eager_assemble(members.ids.front(), members.ids, members.versions,
                     kRange, *cost, eager);
      lazy.assign(members.ids, members.versions, kRange, *cost);
      EXPECT_EQ(lazy.links_evaluated(), members.ids.size() - 1)
          << "assign evaluates the owner row only";
      linked += expect_same_view(eager, lazy, rng);
    }
  }
  return linked;
}

std::size_t up_to(util::Xoshiro256& rng, std::size_t most) {
  return static_cast<std::size_t>(rng.uniform_below(most + 1));
}

/// Owner at the origin; every other member sits at exactly kRange, in a
/// random direction, from the owner or from an earlier member, and each
/// later version moves it by up to `jitter` per axis. Many member pairs
/// are then within a few ulps of kRange apart, inside the pre-filter's
/// (1 + 1e-12) margin band, where only the exact hypot check decides.
fixtures::Tracks range_edge_tracks(util::Xoshiro256& rng,
                                   std::size_t neighbors, std::size_t versions,
                                   double jitter) {
  fixtures::Tracks tracks{fixtures::shuffled_ids(rng, neighbors + 1), {}};
  std::vector<geom::Vec2> base{{0.0, 0.0}};
  while (base.size() < neighbors + 1) {
    const geom::Vec2 anchor = base[rng.uniform_below(base.size())];
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    base.push_back(anchor + geom::Vec2{kRange * std::cos(angle),
                                       kRange * std::sin(angle)});
  }
  for (const geom::Vec2 at : base) {
    auto& history = tracks.versions.emplace_back();
    for (std::size_t v = 0; v < versions; ++v) {
      history.push_back(v == 0 ? at
                               : at + geom::Vec2{rng.uniform(-jitter, jitter),
                                                 rng.uniform(-jitter, jitter)});
    }
  }
  return tracks;
}

TEST(ViewGraphAssign, PointViewsMatchEagerPairPass) {
  const auto linked = expect_assign_matches_eager(
      [](util::Xoshiro256& rng) {
        return fixtures::random_tracks(rng, up_to(rng, 40), 1, kRange, 0.0);
      },
      1, 11, 150);
  EXPECT_GT(linked, 0u);
}

TEST(ViewGraphAssign, IntervalViewsMatchEagerPairPass) {
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    const auto linked = expect_assign_matches_eager(
        [k](util::Xoshiro256& rng) {
          return fixtures::random_tracks(rng, up_to(rng, 30), k, kRange, 20.0);
        },
        k, 20 + k, 120);
    EXPECT_GT(linked, 0u) << "k = " << k;
  }
}

TEST(ViewGraphAssign, StaleMembersBeyondRangeMatchEagerPairPass) {
  // Members up to 1.5x the normal range away: the owner row links them
  // regardless of distance, most of their other pairs are out of range.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    expect_assign_matches_eager(
        [k](util::Xoshiro256& rng) {
          return fixtures::random_tracks(rng, up_to(rng, 30), k,
                                         1.5 * kRange, 30.0);
        },
        k, 30 + k, 120);
  }
}

TEST(ViewGraphAssign, DegenerateViewsMatchEagerPairPass) {
  // Owner-only and one-member views, then co-located members (every
  // distance and cost zero, only the CostKey id tie-breaks differ).
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    expect_assign_matches_eager(
        [k](util::Xoshiro256& rng) {
          return fixtures::random_tracks(rng, up_to(rng, 1), k, 1.2 * kRange,
                                         10.0);
        },
        k, 40 + k, 60);
    expect_assign_matches_eager(
        [k](util::Xoshiro256& rng) {
          return fixtures::colocated_tracks(rng, up_to(rng, 12), k);
        },
        k, 50 + k, 60);
  }
}

TEST(ViewGraphAssign, MembersAtExactlyTheRangeMatchEagerPairPass) {
  // Count the pairs whose squared distance lands within the margin band
  // around kRange^2, to show the band is really exercised.
  std::size_t in_band = 0;
  util::Xoshiro256 probe(61);
  for (int trial = 0; trial < 200; ++trial) {
    const auto tracks = range_edge_tracks(probe, 1 + up_to(probe, 20), 1, 0.0);
    for (std::size_t a = 1; a < tracks.versions.size(); ++a) {
      for (std::size_t b = a + 1; b < tracks.versions.size(); ++b) {
        const double d_sq = geom::distance_sq(tracks.versions[a][0],
                                              tracks.versions[b][0]);
        if (std::abs(d_sq - kRange * kRange) <= kRange * kRange * 1e-12) {
          ++in_band;
        }
      }
    }
  }
  EXPECT_GT(in_band, 100u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    expect_assign_matches_eager(
        [k](util::Xoshiro256& rng) {
          return range_edge_tracks(rng, 1 + up_to(rng, 20), k,
                                   k == 1 ? 0.0 : 1e-9);
        },
        k, 60 + k, 200);
  }
}

TEST(ViewGraphAssign, BuildersAssignTheStoresNewestRecords) {
  // The production builders gather owner-first, ascending-id members from
  // the store and hand them to assign: point views take each newest
  // record, weak views every stored one.
  util::Xoshiro256 rng(71);
  const DistanceCost cost;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 1 + rng.uniform_below(3);
    const auto tracks =
        fixtures::random_tracks(rng, up_to(rng, 25), k, 1.2 * kRange, 20.0);
    const auto store = fixtures::store_of(tracks, k);
    for (const std::size_t used : {std::size_t{1}, k}) {
      const Members members = members_of(tracks, used);
      ViewGraph eager;
      eager_assemble(members.ids.front(), members.ids, members.versions,
                     kRange, cost, eager);
      const ViewGraph built = used == 1
                                  ? core::build_latest_view(store, kRange, cost)
                                  : core::build_weak_view(store, kRange, cost);
      expect_same_view(eager, built, rng);
    }
  }
}

/// Selects with `name` over 20 dense point views of 40 members assigned
/// lazily, and checks that the selection is the eager view's while fewer
/// than half of the neighbor-neighbor pairs were evaluated.
void expect_reads_under_half_the_pairs(const char* name, std::uint64_t seed) {
  const ProtocolSuite suite = make_protocol(name);
  util::Xoshiro256 rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const auto tracks = fixtures::random_tracks(rng, 40, 1, kRange, 0.0);
    const Members members = members_of(tracks, 1);
    ViewGraph lazy;
    lazy.assign(members.ids, members.versions, kRange, *suite.cost);
    ViewGraph eager;
    eager_assemble(members.ids.front(), members.ids, members.versions, kRange,
                   *suite.cost, eager);
    const auto selected = suite.protocol->select(lazy);
    EXPECT_EQ(selected, suite.protocol->select(eager)) << name;
    const std::size_t n = lazy.node_count();
    const std::size_t owner_row = n - 1;
    const std::size_t pairs = n * (n - 1) / 2;
    EXPECT_LT(lazy.links_evaluated(), pairs) << name;
    EXPECT_LT(lazy.links_evaluated() - owner_row, (pairs - owner_row) / 2)
        << name << " evaluated most neighbor pairs";
  }
}

TEST(ViewGraphAssign, RngReadsFewerPairsThanTheViewHolds) {
  // A dense point view: RNG's witness search stops at the first witness,
  // and tests the owner row before the (w, v) link, so it evaluates only
  // part of the neighbor-neighbor pairs. Its selection is unchanged.
  expect_reads_under_half_the_pairs("RNG", 81);
}

TEST(ViewGraphAssign, SptAndMstReadFewerThanHalfThePairs) {
  // The single-source passes skip every relaxation whose cost floor
  // cannot lower a label, so they too leave most pairs unevaluated.
  for (const char* name : {"SPT-2", "SPT-4", "MST"}) {
    expect_reads_under_half_the_pairs(name, 83);
  }
}

/// Reads cost_floor of every ordered pair of `view` in an order shuffled
/// by `rng`, each just before the pair's own has_link, and checks it: a
/// floor read evaluates nothing, never exceeds cost_min, is +inf only
/// where has_link then reports no link, and is exact (cost_min, or +inf)
/// once the pair is evaluated. Counts the deferred pairs whose floor was
/// +inf and those whose finite floor preceded a link.
void expect_floors_bound(const ViewGraph& view, util::Xoshiro256& rng,
                         std::size_t& rejected, std::size_t& bounded) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = view.node_count();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  for (std::size_t k = pairs.size(); k > 1; --k) {
    std::swap(pairs[k - 1], pairs[rng.uniform_below(k)]);
  }
  for (const auto& [i, j] : pairs) {
    const std::uint64_t before = view.links_evaluated();
    const double floor = view.cost_floor(i, j);
    EXPECT_EQ(view.links_evaluated(), before)
        << "cost_floor evaluated (" << i << ", " << j << ")";
    const bool has = view.has_link(i, j);
    const bool deferred = view.links_evaluated() != before;
    if (has) {
      EXPECT_LE(floor, view.cost_min(i, j).value)
          << "floor above cost_min (" << i << ", " << j << ")";
      EXPECT_TRUE(same_bits(view.cost_floor(i, j), view.cost_min(i, j).value));
      if (deferred) ++bounded;
    } else {
      EXPECT_EQ(view.cost_floor(i, j), kInf);
      if (deferred && floor == kInf) ++rejected;
    }
  }
}

TEST(ViewGraphAssign, CostFloorBoundsEveryPairWithoutEvaluatingIt) {
  const DistanceCost distance;
  const EnergyCost free_space(2.0);
  const EnergyCost two_ray(4.0);
  const EnergyCost other_alpha(3.0, 7.5);
  const std::array<const CostModel*, 4> models{&distance, &free_space,
                                               &two_ray, &other_alpha};
  util::Xoshiro256 rng(97);
  ViewGraph view;
  std::size_t rejected = 0;
  std::size_t bounded = 0;
  for (int trial = 0; trial < 160; ++trial) {
    // Point and interval views, stale members out to 1.5x the range,
    // members at exactly the range (the reject's margin band), and
    // co-located members (every floor trivial).
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 3);
    const fixtures::Tracks tracks =
        trial % 4 == 0   ? fixtures::random_tracks(rng, up_to(rng, 30), k,
                                                   1.5 * kRange, 30.0)
        : trial % 4 == 1 ? range_edge_tracks(rng, 1 + up_to(rng, 20), k,
                                             k == 1 ? 0.0 : 1e-9)
        : trial % 4 == 2 ? fixtures::colocated_tracks(rng, up_to(rng, 8), k)
                         : fixtures::random_tracks(rng, up_to(rng, 30), k,
                                                   kRange, 20.0);
    const Members members = members_of(tracks, k);
    view.assign(members.ids, members.versions, kRange,
                *models[rng.uniform_below(models.size())]);
    expect_floors_bound(view, rng, rejected, bounded);
  }
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(bounded, 100u);

  // An explicit view holds no deferred pair: every floor is exact.
  view.reset(7, 2);
  view.set_link(0, 2, 3.0, 3.0, CostKey::make(3.0, 7, 9),
                CostKey::make(3.0, 7, 9));
  EXPECT_EQ(view.cost_floor(2, 0), 3.0);
  EXPECT_EQ(view.cost_floor(1, 2), std::numeric_limits<double>::infinity());
  EXPECT_EQ(view.links_evaluated(), 0u);
}

TEST(ViewGraphAssign, OwnerRowOnlyProtocolsEvaluateNoNeighborPair) {
  util::Xoshiro256 rng(91);
  const auto tracks = fixtures::random_tracks(rng, 30, 1, kRange, 0.0);
  const Members members = members_of(tracks, 1);
  for (const char* name : {"Yao", "Yao2", "CBTC", "KNeigh", "None"}) {
    const ProtocolSuite suite = make_protocol(name);
    ViewGraph view;
    view.assign(members.ids, members.versions, kRange, *suite.cost);
    (void)suite.protocol->select(view);
    EXPECT_EQ(view.links_evaluated(), view.neighbor_count()) << name;
  }
}

TEST(ViewGraphAssign, ResetViewsHoldOnlyDeclaredLinks) {
  // An explicit view after a larger assigned one on the same instance:
  // reset drops every deferred pair, nothing is evaluated on read.
  util::Xoshiro256 rng(95);
  const DistanceCost cost;
  const Members members =
      members_of(fixtures::random_tracks(rng, 20, 1, kRange, 0.0), 1);
  ViewGraph view;
  view.assign(members.ids, members.versions, kRange, cost);
  view.reset(7, 2);
  view.set_id(1, 8);
  view.set_id(2, 9);
  view.set_link(0, 2, 3.0, 3.0, CostKey::make(3.0, 7, 9),
                CostKey::make(3.0, 7, 9));
  EXPECT_FALSE(view.has_link(0, 1));
  EXPECT_FALSE(view.has_link(1, 2));
  EXPECT_TRUE(view.has_link(2, 0));
  EXPECT_EQ(view.links_evaluated(), 0u);
}

}  // namespace
}  // namespace mstc::topology
