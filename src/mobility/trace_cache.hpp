// Process-wide cache of generated mobility trace sets.
//
// A sweep point's traces are a pure function of (mobility model, area,
// average speed, node count, duration, derived seed) — none of which vary
// across the protocol / consistency-mode / buffer-width axes of a paper
// sweep — so every replication that shares those inputs can share one
// immutable TraceSet instead of regenerating it. The cache hands out
// std::shared_ptr<const TraceSet>; Trace itself is immutable after
// construction (leg records live in per-Medium state), so concurrent
// readers need no synchronization.
//
// Caching is a pure wall-clock optimization: generation is deterministic
// in the key, so a hit returns bit-identical traces to a regeneration and
// cache policy (capacity, eviction, even disabling it through
// ScenarioConfig::trace_cache) can never change simulation results —
// pinned by Determinism.TraceCacheSharedMatchesPerReplication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mobility/trace.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace mstc::mobility {

/// One generated fleet: trace i belongs to node i.
using TraceSet = std::vector<Trace>;

/// Everything trace generation reads. Model-specific constants that are
/// not configurable (RandomWalk's leg time, GaussMarkov's alpha/step) are
/// fixed per model name, so the name covers them.
struct TraceKey {
  std::string model;
  double area_width = 0.0;
  double area_height = 0.0;
  double average_speed = 0.0;
  std::size_t node_count = 0;
  double duration = 0.0;
  /// The seed handed to generate_traces (already derived, not the raw
  /// scenario seed).
  std::uint64_t seed = 0;

  friend bool operator==(const TraceKey&, const TraceKey&) = default;
  friend bool operator<(const TraceKey& a, const TraceKey& b) {
    if (a.model != b.model) return a.model < b.model;
    if (a.area_width != b.area_width) return a.area_width < b.area_width;
    if (a.area_height != b.area_height) return a.area_height < b.area_height;
    if (a.average_speed != b.average_speed) {
      return a.average_speed < b.average_speed;
    }
    if (a.node_count != b.node_count) return a.node_count < b.node_count;
    if (a.duration != b.duration) return a.duration < b.duration;
    return a.seed < b.seed;
  }
};

/// Content-keyed cache with per-key single-flight generation: concurrent
/// get() calls for the same key block until the one elected generator
/// finishes; different keys never contend beyond the map lookup. Bounded
/// FIFO retention (oldest insertion evicted first); evicted sets stay
/// alive for as long as any Scenario still holds the shared_ptr.
/// Locking model (machine-checked on Clang — see docs/STATIC_ANALYSIS.md):
/// mutex_ guards the key map and its FIFO companion only. Entry contents
/// are deliberately outside the lock: the single-flight std::call_once on
/// Entry::once is what synchronizes the one write of Entry::traces with
/// every later read, so generation never blocks unrelated keys.
class TraceCache {
 public:
  explicit TraceCache(std::size_t max_entries = 32)
      : max_entries_(max_entries) {}

  /// Returns the trace set for `key`, invoking `generate` exactly once per
  /// cached key (single-flight). `generated` (may be null) reports whether
  /// this call ran the generator — the hit/miss signal behind the
  /// trace_cache_hits / trace_cache_misses counters.
  std::shared_ptr<const TraceSet> get(const TraceKey& key,
                                      const std::function<TraceSet()>& generate,
                                      bool* generated = nullptr)
      MSTC_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const MSTC_EXCLUDES(mutex_);
  void clear() MSTC_EXCLUDES(mutex_);

  /// The process-wide instance every Scenario shares.
  static TraceCache& global();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const TraceSet> traces MSTC_UNGUARDED(
        "written exactly once inside std::call_once(once) and only read "
        "afterwards; call_once provides the synchronization");
  };

  mutable util::Mutex mutex_;
  const std::size_t max_entries_;
  std::map<TraceKey, std::shared_ptr<Entry>> entries_ MSTC_GUARDED_BY(mutex_);
  std::deque<TraceKey> insertion_order_ MSTC_GUARDED_BY(mutex_);
};

}  // namespace mstc::mobility
