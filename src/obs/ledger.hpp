// Per-replication resource ledger and sweep-level aggregation.
//
// A RunLedger answers "where did this replication's resources go": wall
// time split by the profiler's phases (setup / trace_gen / event loop /
// snapshot), event and allocation counts, cache hit rates, and the
// process's peak RSS at completion. Ledgers are derived from an existing
// RunObservation after the run finishes — capturing one reads simulation
// outputs and machine facts, never feeds anything back, so ledger-on runs
// stay byte-identical to ledger-off runs (the determinism suite asserts
// it). Like all wall-clock observability data, ledger fields are excluded
// from the determinism byte-compare surface.
//
// LedgerSummary folds per-replication ledgers into sweep-level statistics
// (mean / p50 / p95 / max per field) for manifests and the streaming
// metrics exporter. Aggregation order does not matter for any reported
// statistic (percentiles sort), so sweeps may fold in completion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mstc::obs {

struct RunObservation;

/// Optional process-wide allocation counter hook. Binaries that replace
/// global operator new with a counting hook (e.g. bench_kernel) register a
/// reader here so ledgers can report allocation deltas; everything else
/// reports 0. The counter is process-wide, so under parallel sweeps the
/// delta attributes concurrent replications' allocations to each other —
/// useful as a steady-state health signal, not an exact per-run figure.
using AllocationCounterFn = std::uint64_t (*)();
void set_allocation_counter(AllocationCounterFn counter) noexcept;
/// Current process-wide allocation count; 0 when no hook is installed.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

/// Scalar ledger fields, enumerable for export (JSONL / Prometheus) and
/// aggregation. Names are stable snake_case identifiers (see
/// docs/OBSERVABILITY.md); tests pin them.
enum class LedgerField : std::size_t {
  kTotalSeconds,     ///< whole-replication wall time (setup + event loop)
  kSetupSeconds,     ///< scenario construction (kSetup profiler phase)
  kTraceGenSeconds,  ///< mobility trace acquisition (subset of setup)
  kSimSeconds,       ///< event-loop wall time
  kSnapshotSeconds,  ///< snapshot-handler wall time (kSnapshot phase)
  kEvents,           ///< simulator events processed
  kAllocations,      ///< allocation-hook delta over the replication
  kPeakRssBytes,     ///< process peak RSS at completion (monotonic)
  kRecomputeHitRate,   ///< recompute-cache skips / refresh decisions
  kTraceCacheHitRate,  ///< trace-cache hits / acquisitions
  kGridHitRate,        ///< medium candidates accepted / examined
  // Per-event cost split (docs/PERFORMANCE.md Amdahl accounting). These
  // nest: medium_query inside the issuing phase, protocol_select inside
  // view_assembly, so they do not sum to sim_seconds.
  kMediumQuerySeconds,     ///< medium receiver/link query wall
  kViewAssemblySeconds,    ///< selection refresh wall (expire+view+select)
  kProtocolSelectSeconds,  ///< Protocol::select wall (subset of the above)
  kDeliverySeconds,        ///< batched Hello fan-out dispatch wall
  kCount               // sentinel
};

inline constexpr std::size_t kLedgerFieldCount =
    static_cast<std::size_t>(LedgerField::kCount);

/// Stable snake_case identifier (the JSON / Prometheus key) of a field.
[[nodiscard]] const char* ledger_field_name(LedgerField field) noexcept;

/// Resource accounting for one completed replication.
struct RunLedger {
  std::uint64_t total_wall_ns = 0;  ///< task start to task end
  std::uint64_t setup_ns = 0;
  std::uint64_t trace_gen_ns = 0;
  std::uint64_t sim_ns = 0;       ///< event-loop wall (Profiler::run_wall_ns)
  std::uint64_t snapshot_ns = 0;  ///< kSnapshot handler-category wall
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;  ///< 0 unless an allocation hook is set
  std::uint64_t peak_rss_bytes = 0;
  double recompute_hit_rate = 0.0;
  double trace_cache_hit_rate = 0.0;
  double grid_hit_rate = 0.0;
  std::uint64_t medium_query_ns = 0;     ///< kMediumQuery category wall
  std::uint64_t view_assembly_ns = 0;    ///< kViewAssembly category wall
  std::uint64_t protocol_select_ns = 0;  ///< kProtocolSelect category wall
  std::uint64_t delivery_ns = 0;         ///< kDelivery category wall
  bool captured = false;  ///< capture() ran (distinguishes empty slots)

  /// Derives every field from a finished run's observation. Phase splits
  /// come from the observation's profiler (zero when profiling was off);
  /// hit rates come from its counter registry. `total_wall_ns` is the
  /// caller-measured replication wall time and `peak_rss` the caller's
  /// util::peak_rss_bytes() reading (passed in so this TU reads no clocks
  /// or machine state itself). `allocations_before` is the caller's
  /// allocation_count() snapshot at replication start.
  void capture(const RunObservation& observation, std::uint64_t wall_ns,
               std::uint64_t peak_rss, std::uint64_t allocations_before);

  /// Field value in export units (seconds for the *_ns fields).
  [[nodiscard]] double value(LedgerField field) const noexcept;
};

/// One aggregated statistic of a ledger field across replications.
struct LedgerStat {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Nearest-rank percentile (p in [0, 100]) over unsorted samples; the exact
/// convention LedgerSummary reports: ceil(p/100 * n)-th smallest sample,
/// clamped to the extremes. Empty input yields 0.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// Sweep-level ledger aggregation: keeps every sample per field so exact
/// percentiles can be reported at export time. Thread-confined like
/// CounterRegistry — sweeps fold per-replication ledgers in after the pool
/// joins, or behind the MetricsExporter's lock.
class LedgerSummary {
 public:
  /// Folds one replication's ledger in (ignores never-captured ledgers).
  void add(const RunLedger& ledger);
  /// Folds another summary's samples in.
  void merge(const LedgerSummary& other);

  [[nodiscard]] std::size_t count() const noexcept {
    return samples_[0].size();
  }
  [[nodiscard]] bool empty() const noexcept { return samples_[0].empty(); }

  /// mean / p50 / p95 / max of `field` over every added ledger.
  [[nodiscard]] LedgerStat stat(LedgerField field) const;

 private:
  std::vector<double> samples_[kLedgerFieldCount];
};

}  // namespace mstc::obs
