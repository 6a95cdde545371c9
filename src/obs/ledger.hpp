// Per-replication resource ledger and sweep-level aggregation.
//
// The ledger answers "where did this replication's resources go": wall
// time split by the profiler's phases (setup / trace_gen / event loop /
// snapshot), the events processed, cache hit rates, and the process's peak
// RSS at completion. Each field is read from a finished replication's
// RunObservation: its name and formula are written once, in ledger.cpp,
// over the observation's profiler and counters. The only values the slot
// stores for the ledger are the two the sweep alone measures, in
// RunLedger. Reading a ledger never feeds anything back, so ledger-on runs
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

/// What the sweep alone measures about one replication; every other ledger
/// field is read from the same slot's profiler and counters. The sweep
/// runner fills it in after the run completes.
struct RunLedger {
  std::uint64_t total_wall_ns = 0;   ///< task start to task end
  std::uint64_t peak_rss_bytes = 0;  ///< util::peak_rss_bytes() at the end
  bool captured = false;  ///< the two readings above were taken
};

/// Value of `field` for a finished replication, in export units (seconds
/// for wall times). Phase splits read the observation's profiler (zero
/// when profiling was off), rates its counters.
[[nodiscard]] double ledger_value(const RunObservation& observation,
                                  LedgerField field) noexcept;

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
  /// Folds one finished replication's ledger in (ignores slots whose ledger
  /// was never captured).
  void add(const RunObservation& observation);

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
