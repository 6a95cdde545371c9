// Repeated runs and parameter sweeps.
//
// Each configuration is repeated with derived seeds (the paper: 20 repeats,
// 95 % CIs) across the global thread pool; results are bit-identical to a
// serial execution because replication r always writes slot r. The
// determinism suite (tests/determinism/) executes that claim against 1-, 2-
// and N-thread pools on every run.
#pragma once

#include <functional>
#include <vector>

#include "metrics/aggregate.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_export.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"
#include "util/thread_pool.hpp"

namespace mstc::runner {

/// Progress of a sweep, passed to SweepHooks::on_progress after every
/// completed replication.
struct SweepProgress {
  std::size_t completed = 0;  ///< replications finished so far
  std::size_t total = 0;      ///< configs x repeats
  double elapsed_seconds = 0.0;
  /// Naive remaining-time estimate (elapsed / completed * remaining).
  /// Meaningless unless eta_known — consumers must print "unknown", not 0,
  /// when it is false.
  double eta_seconds = 0.0;
  /// False until at least one replication has finished AND measurable wall
  /// time has elapsed; guards the division above.
  bool eta_known = false;
};

/// Optional observability for a sweep. Default-constructed hooks are
/// complete no-ops: the sweep runs exactly the un-hooked code path.
struct SweepHooks {
  /// Called after every completed replication. Invocations are serialized
  /// (an annotated util::Mutex inside run_batch_raw — see
  /// docs/STATIC_ANALYSIS.md), but arrive from worker threads in
  /// completion order — do not touch sweep results from inside.
  /// Wall-clock fields make this callback's *timing* non-deterministic;
  /// the sweep results stay a pure function of (configs, repeats).
  std::function<void(const SweepProgress&)> on_progress;
  /// When non-null, resized to configs.size() x repeats; replication r of
  /// configs[i] records into slot i * repeats + r (same layout as
  /// run_batch_raw results). Slot-per-task writes keep the sweep
  /// race-free and deterministic without any locking: a slot has exactly
  /// one writer, and readers run after the pool joins.
  std::vector<obs::RunObservation>* observations = nullptr;
  bool trace = false;    ///< record per-event traces into the slots
  bool profile = false;  ///< record wall-clock profiling into the slots
  /// Record each replication's wall time and peak RSS into its slot's
  /// ledger after the run completes; the other ledger fields are read from
  /// the slot's profiler and counters (implies profile: the ledger's phase
  /// split needs the profiler). Requires `observations`.
  bool ledger = false;
  /// Ring depth of each slot's flight recorder: the replication's most
  /// recent trace events, kept for post-mortems. 0 (the default) turns
  /// flight recording off. O(1) memory per slot, independent of `trace`.
  /// Requires `observations`.
  std::size_t flight_capacity = 0;
  /// Soft per-replication wall-clock deadline (seconds; 0 disables).
  /// Checked when the replication finishes — it cannot interrupt a run,
  /// only flag it — and exceeding it dumps a post-mortem. Requires
  /// `postmortem`.
  double soft_deadline_seconds = 0.0;
  /// Post-mortem sink for stragglers and exceptions. When set, a
  /// replication that throws dumps its identity, counters and flight ring
  /// before the exception continues to the sweep's caller (see
  /// util::parallel_for).
  obs::PostMortemWriter* postmortem = nullptr;
  /// Streaming metrics sink, fed each finished replication's slot in
  /// completion order (the exporter locks internally). Requires
  /// `observations`.
  obs::MetricsExporter* exporter = nullptr;
};

/// Runs `repeats` replications of `base` (seeds derived from base.seed) on
/// the global pool and aggregates the per-run means. Hooks add sweep
/// observability (progress callback and/or per-run counter, trace and
/// profiling slots); results are byte-identical with hooks on or off.
[[nodiscard]] metrics::RunAggregator run_repeated(const ScenarioConfig& base,
                                                  std::size_t repeats,
                                                  const SweepHooks& hooks = {});

/// Runs a whole batch of independent configurations, each repeated
/// `repeats` times, parallelizing over (configuration x replication).
/// Result i aggregates configs[i]'s replications. Results are a pure
/// function of (configs, repeats), independent of the pool's width and of
/// the hooks, which the determinism suite asserts byte-for-byte.
[[nodiscard]] std::vector<metrics::RunAggregator> run_batch(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats,
    util::ThreadPool& pool = util::global_pool(),
    const SweepHooks& hooks = {});

/// Per-replication raw results for configs[i], replication r at index
/// i * repeats + r; the building block of run_batch exposed so tests can
/// byte-compare unaggregated outputs across pool sizes. The hooks never
/// change the returned stats.
[[nodiscard]] std::vector<metrics::RunStats> run_batch_raw(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats,
    util::ThreadPool& pool, const SweepHooks& hooks = {});

}  // namespace mstc::runner
