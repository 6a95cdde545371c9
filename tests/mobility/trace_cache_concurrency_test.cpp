// Executable form of the "shared traces are safe" invariant (ctest label
// "concurrency", part of the TSan subset).
//
// PR 5 moved the Trace leg cursor into per-Medium state precisely so one
// generated TraceSet can back many concurrent replications. This test is
// the proof: N pool tasks race get() on one key (single-flight must elect
// exactly one generator), then every task drives its *own* Medium over the
// *same* shared TraceSet simultaneously. Under TSan this demonstrates that
// shared traces involve no mutation; the checksum compare demonstrates the
// shared-set results are byte-identical to a privately generated set.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/models.hpp"
#include "mobility/trace_cache.hpp"
#include "sim/medium.hpp"
#include "util/thread_pool.hpp"

namespace mstc::mobility {
namespace {

constexpr std::uint64_t kSeed = 19930824;
constexpr std::size_t kNodes = 60;
constexpr double kDuration = 10.0;
constexpr double kRange = 220.0;

TraceKey test_key() {
  return TraceKey{.model = "waypoint",
                  .area_width = 900.0,
                  .area_height = 900.0,
                  .average_speed = 20.0,
                  .node_count = kNodes,
                  .duration = kDuration,
                  .seed = kSeed};
}

TraceSet generate() {
  const auto model = make_paper_waypoint({900.0, 900.0}, 20.0);
  return generate_traces(*model, kNodes, kDuration, kSeed);
}

/// Order-sensitive FNV-1a checksum of every receiver set the medium
/// reports over a time sweep — the cursor fast path is exercised by the
/// increasing query times.
std::uint64_t medium_checksum(const TraceSet& traces) {
  const sim::Medium medium(traces, {});
  std::uint64_t hash = 1469598103934665603ull;
  const auto fold = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  std::vector<sim::NodeId> out;
  for (double t = 0.0; t <= kDuration; t += 0.25) {
    for (sim::NodeId u = 0; u < medium.node_count(); ++u) {
      medium.receivers(u, kRange, t, out);
      fold(out.size());
      for (const sim::NodeId v : out) fold(v);
    }
  }
  return hash;
}

TEST(TraceCacheConcurrency, SharedTraceSetIsRaceFreeAcrossMediums) {
  const std::uint64_t reference = medium_checksum(generate());

  TraceCache cache;
  constexpr std::size_t kTasks = 8;
  std::atomic<std::size_t> generations{0};
  std::vector<std::shared_ptr<const TraceSet>> sets(kTasks);
  std::vector<std::uint64_t> checksums(kTasks, 0);

  util::ThreadPool pool(4);
  util::parallel_for(pool, kTasks, [&](std::size_t i) {
    bool generated = false;
    sets[i] = cache.get(test_key(),
                        [&] {
                          generations.fetch_add(1);
                          return generate();
                        },
                        &generated);
    // Every task reads the shared legs concurrently through its own Medium
    // (and its own per-Medium cursors) — the TSan payload of this test.
    checksums[i] = medium_checksum(*sets[i]);
  });

  EXPECT_EQ(generations.load(), 1u)
      << "single-flight elected more than one generator";
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(sets[i], sets[0]) << "task " << i << " got a private set";
    EXPECT_EQ(checksums[i], reference)
        << "task " << i << " diverged from the privately generated set";
  }
}

}  // namespace
}  // namespace mstc::mobility
