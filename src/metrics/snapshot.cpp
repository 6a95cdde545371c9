#include "metrics/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "core/effective.hpp"
#include "obs/counters.hpp"

namespace mstc::metrics {

SnapshotStats measure_snapshot(
    std::span<const core::NodeController> controllers,
    std::span<const geom::Vec2> positions) {
  SnapshotScratch scratch;
  return measure_snapshot(controllers, positions, scratch);
}

SnapshotStats measure_snapshot(
    std::span<const core::NodeController> controllers,
    std::span<const geom::Vec2> positions, SnapshotScratch& scratch,
    const SnapshotConfig& config, const obs::Probe* probe) {
  assert(controllers.size() == positions.size());
  const std::size_t n = controllers.size();
  SnapshotStats stats;
  if (n == 0) return stats;

  // One pass over the candidate sets covers both range-based metrics: the
  // physical-degree count re-applies the exact distance_sq predicate, and
  // the link checks re-apply the exact both-ends can_deliver conjunction
  // (core::effective_link, membership first) feeding the union-find.
  // Candidate sets are ascending supersets of everything either predicate
  // can accept (core/effective.hpp), so both integers — and the evaluation
  // order of every double — match the brute-force scan exactly.
  scratch.components_.reset(n);
  graph::SpatialGrid* grid = config.brute_force ? nullptr : &scratch.grid_;
  double range_total = 0.0;
  std::size_t physical_total = 0;
  std::uint64_t links_examined = 0;
  core::for_each_snapshot_candidates(
      controllers, positions, grid, scratch.candidates_,
      [&](std::size_t u, const std::vector<std::size_t>& candidates) {
        const double range = controllers[u].extended_range();
        range_total += range;
        const double range_sq = range * range;
        // The physical-degree count adds the exact distance_sq predicate
        // without a branch, and feeds an integer total, so it matches the
        // pair loop. u is always its own candidate (distance 0, and every
        // candidate set is a superset of the exact acceptances), so the
        // count includes u; subtract it to match the v != u loop.
        assert(std::binary_search(candidates.begin(), candidates.end(), u));
        std::size_t within = 0;
        for (const std::size_t v : candidates) {
          within += static_cast<std::size_t>(
              geom::distance_sq(positions[u], positions[v]) <= range_sq);
        }
        physical_total += within - 1;
        for (const std::size_t v : candidates) {
          if (v <= u) continue;
          ++links_examined;
          if (core::effective_link(controllers[u], controllers[v],
                                   positions[u], positions[v])) {
            scratch.components_.unite(u, v);
          }
        }
      });

  // Pair connectivity is a pure function of the component partition
  // (sum of s*(s-1) over component sizes), so the union-find reproduces
  // graph::pair_connectivity_ratio(effective_snapshot(...)) bit for bit,
  // including the n < 2 convention.
  if (n < 2) {
    stats.strict_connectivity = 1.0;
  } else {
    std::size_t connected_pairs = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (scratch.components_.find(u) == u) {  // component root
        const std::size_t s = scratch.components_.component_size(u);
        connected_pairs += s * (s - 1);
      }
    }
    stats.strict_connectivity = static_cast<double>(connected_pairs) /
                                static_cast<double>(n * (n - 1));
  }

  // Mutual (both-ends) logical links: the ordered pairs (u, v) with v in
  // L(u) and u in L(v), each reverse test an is_logical binary search over
  // v's sorted logical list.
  std::size_t logical_total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (const core::NodeId v : controllers[u].logical_neighbors()) {
      assert(v < n);
      if (controllers[v].is_logical(static_cast<core::NodeId>(u))) {
        ++logical_total;
      }
    }
  }

  stats.mean_range = range_total / static_cast<double>(n);
  stats.mean_logical_degree =
      static_cast<double>(logical_total) / static_cast<double>(n);
  stats.mean_physical_degree =
      static_cast<double>(physical_total) / static_cast<double>(n);
  if (probe != nullptr) {
    probe->count(obs::Counter::kSnapshotLinksExamined, links_examined);
  }
  return stats;
}

}  // namespace mstc::metrics
