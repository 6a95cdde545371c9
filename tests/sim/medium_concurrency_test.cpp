// Executable form of the "Medium is per-replication" invariant (ctest
// label "concurrency", part of the TSan subset).
//
// The medium's query path mutates internal caches — the spatial index,
// position scratch buffers, and the per-node trace-leg cursors — so a
// Medium must never be shared across threads (immutable traces may be:
// see trace_cache_concurrency_test). This test runs grid-backed sweeps on
// the thread pool the way sweeps are meant to: each task owns its Medium.
// Under TSan this proves the construction is race-free; the checksum
// compare proves the per-thread results are byte-identical to a serial
// run. (Debug builds additionally assert inside sim::Medium that no
// instance is queried from two threads.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mobility/models.hpp"
#include "sim/medium.hpp"
#include "util/thread_pool.hpp"

namespace mstc::sim {
namespace {

constexpr std::uint64_t kSeed = 20040426;
constexpr std::size_t kNodes = 80;
constexpr double kDuration = 12.0;
constexpr double kRange = 200.0;

/// One full grid-backed sweep over freshly generated traces; returns an
/// order-sensitive FNV-1a checksum of every receiver set and link list.
std::uint64_t sweep_checksum() {
  const auto model = mobility::make_paper_waypoint({900.0, 900.0}, 25.0);
  // Same seed in every replication: identical traces, so identical
  // checksums — without sharing a single byte between threads.
  const auto traces =
      mobility::generate_traces(*model, kNodes, kDuration, kSeed);
  // The default config serves every query from the index, so TSan
  // exercises the grid's mutable caches, which is the point of this suite.
  const Medium medium(traces, {});

  std::uint64_t hash = 1469598103934665603ull;
  const auto fold = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  std::vector<NodeId> out;
  std::vector<std::pair<NodeId, NodeId>> links;
  for (double t = 0.0; t <= kDuration; t += 0.5) {
    for (NodeId u = 0; u < medium.node_count(); ++u) {
      medium.receivers(u, kRange, t, out);
      fold(out.size());
      for (const NodeId v : out) fold(v);
    }
  }
  for (double t = 0.0; t <= kDuration; t += 2.5) {
    medium.links_within(kRange, t, links);
    fold(links.size());
    for (const auto& [u, v] : links) fold(u * kNodes + v);
  }
  return hash;
}

TEST(MediumConcurrency, PerReplicationMediumsAreRaceFreeAndDeterministic) {
  const std::uint64_t reference = sweep_checksum();

  constexpr std::size_t kReplications = 12;
  std::vector<std::uint64_t> checksums(kReplications, 0);
  util::ThreadPool pool(4);
  util::parallel_for(pool, kReplications, [&checksums](std::size_t r) {
    checksums[r] = sweep_checksum();
  });

  for (std::size_t r = 0; r < kReplications; ++r) {
    EXPECT_EQ(checksums[r], reference)
        << "replication " << r << " diverged from the serial sweep";
  }
}

}  // namespace
}  // namespace mstc::sim
