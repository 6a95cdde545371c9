// Streaming metrics exposition: periodic JSONL + Prometheus text format.
//
// A MetricsExporter is the campaign-scale view of a sweep in flight: as
// replications complete, the runner feeds their observation slots in and
// the exporter maintains merged counter totals, a merged wall-clock
// profile, and the ledger summary (mean/p50/p95/max per field). After
// every record it appends one JSON line to the JSONL stream and rewrites
// the Prometheus text-exposition file, so `tail -f` and a Prometheus
// file-based scrape both work while the sweep runs.
//
// Determinism: the exporter only ever reads observation slots of FINISHED
// replications (the sweep runner calls record() after run_scenario
// returns) and writes to its own files — it cannot perturb results, and
// the determinism suite byte-compares exporter-on vs off sweeps.
//
// Thread model: shared across sweep workers, so all aggregate state is
// MSTC_GUARDED_BY an annotated util::Mutex (see docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/counters.hpp"
#include "obs/ledger.hpp"
#include "obs/profile.hpp"
#include "util/mutex.hpp"

namespace mstc::obs {

struct RunObservation;

class MetricsExporter {
 public:
  struct Options {
    /// JSONL stream path; empty disables the JSONL output.
    std::string jsonl_path;
    /// Prometheus text-exposition path; empty disables it.
    std::string prom_path;
    /// Job label stamped on every JSONL line / Prometheus series.
    std::string job = "mstc";
  };

  MetricsExporter() = default;
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Opens the configured outputs (JSONL truncated, Prometheus rewritten
  /// per snapshot); false when any configured path cannot be opened.
  [[nodiscard]] bool open(const Options& options);
  /// Closes the outputs; later records write nothing. Safe to call
  /// repeatedly.
  void close();

  /// Folds one finished replication's observation into the aggregates and
  /// emits a snapshot of them.
  void record(const RunObservation& observation);

  /// Replications recorded so far.
  [[nodiscard]] std::size_t completed() const;

 private:
  void emit() MSTC_REQUIRES(mutex_);
  void emit_jsonl() MSTC_REQUIRES(mutex_);
  void emit_prometheus() MSTC_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  Options options_ MSTC_GUARDED_BY(mutex_);
  std::FILE* jsonl_ MSTC_GUARDED_BY(mutex_) = nullptr;
  CounterRegistry totals_ MSTC_GUARDED_BY(mutex_);
  Profiler profiler_ MSTC_GUARDED_BY(mutex_);
  LedgerSummary ledger_ MSTC_GUARDED_BY(mutex_);
  std::size_t completed_ MSTC_GUARDED_BY(mutex_) = 0;
  std::uint64_t started_ns_ MSTC_GUARDED_BY(mutex_) = 0;
};

}  // namespace mstc::obs
