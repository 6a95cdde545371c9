// Differential test of the single-source selections: SptProtocol,
// LmstProtocol and SearchRegionSptProtocol decide every neighbor in one
// O(d^2) pass, and must select exactly what the per-neighbor searches they
// replaced selected. Those searches are kept below, verbatim, as oracles:
// a masked Dijkstra per target (condition 2) and a BFS over certainly
// cheaper links per target (condition 3). RngProtocol and GabrielProtocol
// test the owner-row condition before they read the (w, v) link, which a
// view evaluates on first read; their oracles keep the links-first
// predicate order they replaced (condition 1).
//
// Views come from tests/support/view_fixtures.hpp through the production
// builders: point views (build_latest_view), interval views
// (build_weak_view, k = 2 and 3), lattice positions where equal-cost
// detours are exact, stale members beyond the normal range (out to 3x it,
// where the cost floor prunes most pairs), co-located members (all costs
// zero), and owner-only and one-member views.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "core/consistency.hpp"
#include "geom/predicates.hpp"
#include "support/view_fixtures.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace mstc::topology {
namespace {

using fixtures::kRange;

// --- Oracles: the per-neighbor algorithms, verbatim ---------------------

std::vector<std::size_t> reference_spt(const ViewGraph& view) {
  std::vector<std::size_t> out;
  std::vector<double> dist_;
  std::vector<std::pair<double, std::size_t>> heap_;
  const std::size_t n = view.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dist_.resize(n);

  for (std::size_t v = 1; v < n; ++v) {
    const double direct = view.cost_min(0, v).value;
    // Dijkstra from the owner with the direct link (0, v) masked, so any
    // path found to v has at least one intermediate hop.
    std::fill(dist_.begin(), dist_.end(), kInf);
    dist_[0] = 0.0;
    heap_.clear();
    heap_.emplace_back(0.0, std::size_t{0});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, a] = heap_.back();
      heap_.pop_back();
      if (d > dist_[a] || d >= direct) continue;  // can't beat direct anymore
      for (std::size_t b = 1; b < n; ++b) {
        if (b == a || !view.has_link(a, b)) continue;
        if (a == 0 && b == v) continue;  // masked direct link
        const double candidate = d + view.cost_max(a, b).value;
        if (candidate < dist_[b]) {
          dist_[b] = candidate;
          heap_.emplace_back(candidate, b);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
      }
    }
    // Strict inequality: equal-cost detours keep the link (conservative).
    if (!(direct > dist_[v])) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> reference_lmst(const ViewGraph& view) {
  std::vector<std::size_t> out;
  std::vector<char> reachable_;
  std::vector<std::size_t> stack_;
  const std::size_t n = view.node_count();
  reachable_.assign(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    const CostKey direct = view.cost_min(0, v);
    // BFS from the owner over links with cost_max < direct. The direct
    // link itself never qualifies (cost_max >= cost_min), so paths found
    // are genuine multi-hop (or cheaper single-hop witness chains).
    std::fill(reachable_.begin(), reachable_.end(), 0);
    reachable_[0] = 1;
    stack_.assign(1, 0);
    bool removed = false;
    while (!stack_.empty() && !removed) {
      const std::size_t a = stack_.back();
      stack_.pop_back();
      for (std::size_t b = 1; b < n; ++b) {
        if (reachable_[b] || !view.has_link(a, b)) continue;
        if (view.cost_max(a, b) < direct) {
          if (b == v) {
            removed = true;
            break;
          }
          reachable_[b] = 1;
          stack_.push_back(b);
        }
      }
    }
    if (!removed) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> reference_search_region(const ViewGraph& view,
                                                 double initial_fraction_) {
  std::vector<std::size_t> out;
  std::vector<char> inside_;
  std::vector<double> dist_;
  std::vector<std::pair<double, std::size_t>> heap_;
  const std::size_t n = view.node_count();
  if (n <= 1) return out;

  double max_distance = 0.0;
  for (std::size_t v = 1; v < n; ++v) {
    max_distance = std::max(max_distance, view.distance_max(0, v));
  }

  // Grow the search radius until every outside neighbor has a certainly
  // cheaper 2-hop relay through an inside neighbor.
  double radius = initial_fraction_ * max_distance;
  inside_.assign(n, 0);
  for (int growth = 0; growth < 16; ++growth) {
    for (std::size_t v = 1; v < n; ++v) {
      inside_[v] = view.distance_max(0, v) <= radius;
    }
    bool covered = true;
    for (std::size_t v = 1; v < n && covered; ++v) {
      if (inside_[v]) continue;
      bool relayed = false;
      for (std::size_t w = 1; w < n && !relayed; ++w) {
        if (!inside_[w] || !view.has_link(w, v)) continue;
        relayed = view.cost_max(0, w).value + view.cost_max(w, v).value <
                  view.cost_min(0, v).value;
      }
      covered = relayed;
    }
    if (covered || radius >= max_distance) break;
    radius = std::min(2.0 * radius, max_distance);
  }

  // SPT children of the owner within the region (Dijkstra over inside
  // nodes only, pessimistic costs; direct link masked per target).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dist_.resize(n);
  for (std::size_t v = 1; v < n; ++v) {
    if (!inside_[v]) continue;
    const double direct = view.cost_min(0, v).value;
    std::fill(dist_.begin(), dist_.end(), kInf);
    dist_[0] = 0.0;
    heap_.clear();
    heap_.emplace_back(0.0, std::size_t{0});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, a] = heap_.back();
      heap_.pop_back();
      if (d > dist_[a] || d >= direct) continue;
      for (std::size_t b = 1; b < n; ++b) {
        if (b == a || !inside_[b] || !view.has_link(a, b)) continue;
        if (a == 0 && b == v) continue;
        const double candidate = d + view.cost_max(a, b).value;
        if (candidate < dist_[b]) {
          dist_[b] = candidate;
          heap_.emplace_back(candidate, b);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
      }
    }
    if (!(direct > dist_[v])) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> reference_rng(const ViewGraph& view) {
  std::vector<std::size_t> out;
  const std::size_t n = view.node_count();
  for (std::size_t v = 1; v < n; ++v) {
    const CostKey direct = view.cost_min(0, v);
    bool removed = false;
    for (std::size_t w = 1; w < n && !removed; ++w) {
      if (w == v) continue;
      if (!view.has_link(0, w) || !view.has_link(w, v)) continue;
      removed = direct > view.cost_max(0, w) && direct > view.cost_max(w, v);
    }
    if (!removed) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> reference_gabriel(const ViewGraph& view) {
  std::vector<std::size_t> out;
  const std::size_t n = view.node_count();
  const geom::Vec2 u = view.representative(0);
  for (std::size_t v = 1; v < n; ++v) {
    const geom::Vec2 pv = view.representative(v);
    const CostKey direct = view.cost_min(0, v);
    bool removed = false;
    for (std::size_t w = 1; w < n && !removed; ++w) {
      if (w == v) continue;
      if (!view.has_link(0, w) || !view.has_link(w, v)) continue;
      removed = geom::in_gabriel_disk(u, pv, view.representative(w)) &&
                direct > view.cost_max(0, w) && direct > view.cost_max(w, v);
    }
    if (!removed) out.push_back(v);
  }
  return out;
}

// --- Harness -------------------------------------------------------------

/// The factory's search-region lineup entry starts at this fraction.
constexpr double kSearchRegionFraction = 0.25;

std::vector<std::size_t> reference_select(std::string_view name,
                                          const ViewGraph& view) {
  if (name == "MST") return reference_lmst(view);
  if (name == "RNG") return reference_rng(view);
  if (name == "Gabriel") return reference_gabriel(view);
  if (name == "SPT-R") {
    return reference_search_region(view, kSearchRegionFraction);
  }
  return reference_spt(view);
}

/// Builds one view from a seeded generator and the protocol's cost model.
using ViewMaker = std::function<ViewGraph(util::Xoshiro256&, const CostModel&)>;

class SelectReferenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  /// Compares the protocol with its oracle over `trials` views from
  /// `make`; returns how many of them removed at least one link, so each
  /// case can show it exercised removals and not just keep-everything.
  std::size_t expect_identical(const ViewMaker& make, std::uint64_t seed,
                               int trials) {
    const ProtocolSuite suite = make_protocol(GetParam());
    util::Xoshiro256 rng(seed);
    std::size_t removing = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const ViewGraph view = make(rng, *suite.cost);
      const auto expected = reference_select(GetParam(), view);
      const auto selected = suite.protocol->select(view);
      EXPECT_EQ(selected, expected)
          << GetParam() << ", trial " << trial << ", "
          << view.neighbor_count() << " neighbors";
      if (expected.size() < view.neighbor_count()) ++removing;
    }
    return removing;
  }
};

std::size_t neighbors_up_to(util::Xoshiro256& rng, std::size_t most) {
  return static_cast<std::size_t>(rng.uniform_below(most + 1));
}

TEST_P(SelectReferenceTest, PointViewsMatchPerNeighborSearch) {
  const auto removing = expect_identical(
      [](util::Xoshiro256& rng, const CostModel& cost) {
        const auto tracks = fixtures::random_tracks(
            rng, neighbors_up_to(rng, 60), 1, kRange, 0.0);
        return core::build_latest_view(fixtures::store_of(tracks, 1), kRange,
                                       cost);
      },
      101, 400);
  EXPECT_GT(removing, 0u);
}

TEST_P(SelectReferenceTest, IntervalViewsMatchPerNeighborSearch) {
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    const auto removing = expect_identical(
        [k](util::Xoshiro256& rng, const CostModel& cost) {
          const auto tracks = fixtures::random_tracks(
              rng, neighbors_up_to(rng, 50), k, kRange, 20.0);
          return core::build_weak_view(fixtures::store_of(tracks, k), kRange,
                                       cost);
        },
        200 + k, 300);
    EXPECT_GT(removing, 0u) << "k = " << k;
  }
}

TEST_P(SelectReferenceTest, LatticeViewsWithExactTiesMatchPerNeighborSearch) {
  // Lattice coordinates make many detours cost exactly the direct link
  // (collinear runs for distance costs, Pythagorean triples for d^2), so
  // the strict removal inequality decides; ids are shuffled so CostKey
  // tie-breaks run in both directions.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    const auto removing = expect_identical(
        [k](util::Xoshiro256& rng, const CostModel& cost) {
          const auto tracks = fixtures::lattice_tracks(
              rng, neighbors_up_to(rng, 40), k, 25.0);
          const auto store = fixtures::store_of(tracks, k);
          return k == 1 ? core::build_latest_view(store, kRange, cost)
                        : core::build_weak_view(store, kRange, cost);
        },
        300 + k, 300);
    EXPECT_GT(removing, 0u) << "k = " << k;
  }
}

TEST_P(SelectReferenceTest, StaleMembersBeyondRangeMatchPerNeighborSearch) {
  // Members up to 1.4x the normal range away: stored (so the owner row
  // links them) but without certified links to most other members.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    expect_identical(
        [k](util::Xoshiro256& rng, const CostModel& cost) {
          const auto tracks = fixtures::random_tracks(
              rng, neighbors_up_to(rng, 40), k, 1.4 * kRange, 30.0);
          const auto store = fixtures::store_of(tracks, k);
          return k == 1 ? core::build_latest_view(store, kRange, cost)
                        : core::build_weak_view(store, kRange, cost);
        },
        400 + k, 300);
  }
}

TEST_P(SelectReferenceTest, FarStaleMembersMatchPerNeighborSearch) {
  // The shape of a 160 m/s Fig. 6 view: about half the members within the
  // normal range and half stale senders out to 3x it, kept by the 2.5 s
  // expiry. Most pairs are then certainly absent, and the cost floor
  // decides them without evaluating the link.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    const auto removing = expect_identical(
        [k](util::Xoshiro256& rng, const CostModel& cost) {
          auto tracks = fixtures::random_tracks(
              rng, neighbors_up_to(rng, 25), k, kRange, 40.0);
          const auto stale = fixtures::random_tracks(
              rng, neighbors_up_to(rng, 25), k, 3.0 * kRange, 40.0);
          tracks.versions.insert(tracks.versions.end(),
                                 stale.versions.begin() + 1,
                                 stale.versions.end());
          tracks.ids = fixtures::shuffled_ids(rng, tracks.versions.size());
          const auto store = fixtures::store_of(tracks, k);
          return k == 1 ? core::build_latest_view(store, kRange, cost)
                        : core::build_weak_view(store, kRange, cost);
        },
        600 + k, 300);
    EXPECT_GT(removing, 0u) << "k = " << k;
  }
}

TEST_P(SelectReferenceTest, DegenerateViewsMatchPerNeighborSearch) {
  // Owner-only and one-member views (the member near, at the range edge,
  // or beyond it), then co-located fleets where every cost is zero and
  // only the id tie-breaks order links.
  expect_identical(
      [](util::Xoshiro256& rng, const CostModel& cost) {
        const auto tracks = fixtures::random_tracks(
            rng, neighbors_up_to(rng, 1), 1, 1.2 * kRange, 0.0);
        return core::build_latest_view(fixtures::store_of(tracks, 1), kRange,
                                       cost);
      },
      501, 100);
  expect_identical(
      [](util::Xoshiro256& rng, const CostModel& cost) {
        const std::size_t k = 1 + rng.uniform_below(2);
        const auto tracks =
            fixtures::colocated_tracks(rng, neighbors_up_to(rng, 12), k);
        const auto store = fixtures::store_of(tracks, k);
        return k == 1 ? core::build_latest_view(store, kRange, cost)
                      : core::build_weak_view(store, kRange, cost);
      },
      502, 100);
}

INSTANTIATE_TEST_SUITE_P(Lineup, SelectReferenceTest,
                         ::testing::Values("SPT-2", "SPT-4", "MST", "SPT-R",
                                           "RNG", "Gabriel"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace mstc::topology
