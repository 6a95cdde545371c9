// Named monotonic counters and sim-time histograms.
//
// The observability layer's accounting substrate: a fixed catalogue of
// protocol-level counters (Hello exchanges, view synchronizations, link
// removals, ...) kept as run totals, plus a small set of sim-time
// histograms. Which node did what is the trace's job: every trace and
// flight-recorder record carries its node id. One CounterRegistry belongs
// to exactly one simulation run, so counting needs no synchronization;
// parallel sweeps give every replication its own registry and merge the
// slots afterwards in deterministic task order (see runner::SweepHooks).
//
// Counting never feeds back into simulation state, so enabling it cannot
// change results — the determinism suite byte-compares runs with
// observation on and off.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mstc::obs {

/// Catalogue of monotonic event counters (see docs/OBSERVABILITY.md).
enum class Counter : std::size_t {
  kHelloTx,               ///< Hello beacons sent
  kHelloRx,               ///< Hello beacons received (after loss injection)
  kHelloLossDrops,        ///< Hello receptions destroyed by loss injection
  kViewSyncs,             ///< logical-selection refreshes requested
  kTopologyRecomputes,    ///< protocol selections actually applied
  kTopologyRecomputeSkips,  ///< refreshes skipped by the recompute cache
  kViewLinksEvaluated,    ///< view pairs a recompute evaluated (owner row too)
  kLinkRemovals,          ///< logical neighbors dropped by a recompute
  kBufferZoneExpansions,  ///< recomputes that grew the extended range
  kSyncFloodForwards,     ///< reactive synchronization-flood forwards
  kBroadcastForwards,     ///< data-flood / CDS broadcast transmissions
  kFloodDeliveries,       ///< data-flood packets accepted by a receiver
  kMediumDeliveries,      ///< receiver-set entries produced by the medium
  kMediumGridRebuilds,    ///< spatial-index rebuilds in the medium
  kMediumCandidates,      ///< exact distance checks performed by the medium
  kMediumCandidatesAccepted,  ///< medium distance checks that passed
  kCdsMarked,             ///< nodes marked by the Wu-Li process
  kCdsPruned,             ///< marked nodes removed by pruning rules 1/2
  kEpidemicTransfers,     ///< epidemic copies handed to a new carrier
  kEpidemicDeliveries,    ///< epidemic messages reaching their destination
  kSnapshots,             ///< strict-connectivity snapshots taken
  kSnapshotLinksExamined,  ///< exact link checks performed by snapshots
  kSimEventsScheduled,    ///< events pushed into the simulator's queue
  kTraceCacheHits,        ///< scenario trace sets served from the cache
  kTraceCacheMisses,      ///< scenario trace sets generated on demand
  kCount                  // sentinel
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case identifier (the JSON/trace key) of a counter.
[[nodiscard]] const char* counter_name(Counter counter) noexcept;

/// Catalogue of sim-time histograms.
enum class Hist : std::size_t {
  kFloodDeliveryRatio,    ///< per-flood delivery ratio in [0, 1]
  kSnapshotConnectivity,  ///< per-snapshot strict pair connectivity
  kEpidemicDelay,         ///< end-to-end delay of delivered DTN messages (s)
  kCount                  // sentinel
};

inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(Hist::kCount);

[[nodiscard]] const char* hist_name(Hist hist) noexcept;

/// Fixed-bucket histogram: bucket i counts samples < upper_edges[i] (first
/// match wins); one implicit overflow bucket catches the rest.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_edges);

  void add(double value) noexcept;
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }
  /// Count of bucket i; i == bucket_count() - 1 is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i];
  }
  /// Upper edge of bucket i (infinity for the overflow bucket).
  [[nodiscard]] double upper_edge(std::size_t i) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

 private:
  std::vector<double> edges_;          // ascending upper edges
  std::vector<std::uint64_t> counts_;  // edges_.size() + 1 (overflow last)
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Per-run registry of every counter total and histogram.
///
/// Thread model: deliberately lock-free because it is thread-confined, not
/// shared — exactly one replication (one sweep task) owns a registry, and
/// merge() runs after the pool has joined. It therefore owns no mutex and
/// carries no MSTC_GUARDED_BY annotations (the capability-annotation layer
/// in util/annotations.hpp applies to shared state only; see
/// docs/STATIC_ANALYSIS.md). Sharing one registry across replications is a
/// bug the TSan `concurrency` suite would surface as a data race.
class CounterRegistry {
 public:
  CounterRegistry();

  void add(Counter counter, std::uint64_t delta = 1) noexcept {
    totals_[static_cast<std::size_t>(counter)] += delta;
  }

  [[nodiscard]] std::uint64_t total(Counter counter) const noexcept {
    return totals_[static_cast<std::size_t>(counter)];
  }

  [[nodiscard]] Histogram& histogram(Hist hist) noexcept {
    return histograms_[static_cast<std::size_t>(hist)];
  }
  [[nodiscard]] const Histogram& histogram(Hist hist) const noexcept {
    return histograms_[static_cast<std::size_t>(hist)];
  }

  /// Adds every total and histogram of `other` into this registry (used to
  /// fold per-replication registries into sweep totals).
  void merge(const CounterRegistry& other);

 private:
  std::array<std::uint64_t, kCounterCount> totals_{};
  std::array<Histogram, kHistCount> histograms_;
};

}  // namespace mstc::obs
