#pragma once

// =============================================================================
// Shared view fixtures for the topology and core test suites.
//
// Usage: #include "support/view_fixtures.hpp" (tests/ is on every test
// binary's include path). Every function is inline to stay ODR-safe across
// translation units, and deterministic given the Xoshiro256 it is handed.
//
// Two families:
//  * random_view: a consistent (single-version) view straight from
//    positions, via topology::make_consistent_view.
//  * Tracks + store_of: per-member position histories loaded into a
//    core::LocalViewStore, so the production builders (build_latest_view,
//    build_weak_view) assemble point and interval views from them.
// =============================================================================

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/view_store.hpp"
#include "geom/vec2.hpp"
#include "topology/view_graph.hpp"
#include "util/prng.hpp"

namespace mstc::fixtures {

/// The paper's normal transmission range (m).
inline constexpr double kRange = 250.0;

/// A consistent view and the positions it was built from: positions[0] is
/// the owner at the origin, and view index i is positions[i] with global
/// id i.
struct LocalView {
  std::vector<geom::Vec2> positions;
  topology::ViewGraph view;
};

/// Owner at the origin plus `neighbors` members uniformly in the disk of
/// radius kRange (rejection-sampled from the bounding square), every pair
/// within kRange linked with a point cost.
inline LocalView random_view(util::Xoshiro256& rng, std::size_t neighbors,
                             const topology::CostModel& cost) {
  std::vector<geom::Vec2> positions{{0.0, 0.0}};
  while (positions.size() < neighbors + 1) {
    const geom::Vec2 p{rng.uniform(-kRange, kRange),
                       rng.uniform(-kRange, kRange)};
    if (p.norm() <= kRange) positions.push_back(p);
  }
  std::vector<topology::NodeId> ids(positions.size());
  std::iota(ids.begin(), ids.end(), topology::NodeId{0});
  return {positions,
          topology::make_consistent_view(positions, ids, 0, kRange, cost)};
}

/// Per-member position histories, oldest version first. Member 0 is the
/// view's owner; ids[i] is member i's global id.
struct Tracks {
  std::vector<topology::NodeId> ids;
  std::vector<std::vector<geom::Vec2>> versions;
};

/// Distinct ids in random order, so the owner's id falls anywhere among
/// its neighbors' and CostKey tie-breaks see both id orders.
inline std::vector<topology::NodeId> shuffled_ids(util::Xoshiro256& rng,
                                                  std::size_t count) {
  std::vector<topology::NodeId> ids(count);
  std::iota(ids.begin(), ids.end(), topology::NodeId{0});
  for (std::size_t i = count; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.uniform_below(i)]);
  }
  return ids;
}

/// Owner near the origin plus `neighbors` members uniformly in the disk of
/// radius `reach`; each of the `versions` positions is the member's base
/// point displaced by up to `jitter` per axis. With reach > kRange some
/// members are stale: still stored, but beyond the normal range.
inline Tracks random_tracks(util::Xoshiro256& rng, std::size_t neighbors,
                            std::size_t versions, double reach,
                            double jitter) {
  Tracks tracks{shuffled_ids(rng, neighbors + 1), {}};
  for (std::size_t member = 0; member <= neighbors; ++member) {
    geom::Vec2 base{0.0, 0.0};
    while (member > 0) {
      base = {rng.uniform(-reach, reach), rng.uniform(-reach, reach)};
      if (base.norm() <= reach) break;
    }
    auto& history = tracks.versions.emplace_back();
    for (std::size_t k = 0; k < versions; ++k) {
      history.push_back(base + geom::Vec2{rng.uniform(-jitter, jitter),
                                          rng.uniform(-jitter, jitter)});
    }
  }
  return tracks;
}

/// Owner at the origin plus `neighbors` distinct points of the square
/// lattice with the given `pitch` within kRange of the origin (the disk
/// must hold more than `neighbors` lattice points). Every later version
/// moves a member by at most one lattice step per axis, so all coordinates
/// stay on the lattice: collinear runs and Pythagorean triples make
/// equal-cost detours exact, where only the strict removal inequality
/// keeps the direct link.
inline Tracks lattice_tracks(util::Xoshiro256& rng, std::size_t neighbors,
                             std::size_t versions, double pitch) {
  const auto cells = static_cast<std::int64_t>(kRange / pitch);
  // A whole number of lattice steps in [lo, hi].
  const auto steps = [&](std::int64_t lo, std::int64_t hi) {
    return pitch * static_cast<double>(rng.uniform_int(lo, hi));
  };
  Tracks tracks{shuffled_ids(rng, neighbors + 1), {}};
  std::vector<geom::Vec2> taken{{0.0, 0.0}};
  while (taken.size() < neighbors + 1) {
    const geom::Vec2 p{steps(-cells, cells), steps(-cells, cells)};
    if (p.norm() > kRange ||
        std::find(taken.begin(), taken.end(), p) != taken.end()) {
      continue;
    }
    taken.push_back(p);
  }
  for (const geom::Vec2 base : taken) {
    auto& history = tracks.versions.emplace_back();
    geom::Vec2 at = base;
    for (std::size_t k = 0; k < versions; ++k) {
      history.push_back(at);
      at = at + geom::Vec2{steps(-1, 1), steps(-1, 1)};
    }
  }
  return tracks;
}

/// Every member co-located with the owner: all distances, and so all
/// costs, are zero, and only CostKey id tie-breaks order the links.
inline Tracks colocated_tracks(util::Xoshiro256& rng, std::size_t neighbors,
                               std::size_t versions) {
  return {shuffled_ids(rng, neighbors + 1),
          std::vector<std::vector<geom::Vec2>>(
              neighbors + 1, std::vector<geom::Vec2>(versions))};
}

/// A store owned by member 0 holding every version of every track, version
/// numbers 1, 2, ... in recording order (newest last), never expiring.
inline core::LocalViewStore store_of(const Tracks& tracks,
                                     std::size_t history_limit) {
  core::LocalViewStore store(tracks.ids.front(), history_limit, 1e9);
  for (std::size_t member = 0; member < tracks.ids.size(); ++member) {
    const auto& history = tracks.versions[member];
    for (std::size_t k = 0; k < history.size(); ++k) {
      store.record({tracks.ids[member],
                    {history[k], k + 1, static_cast<double>(k)}});
    }
  }
  return store;
}

}  // namespace mstc::fixtures
