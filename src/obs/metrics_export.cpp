#include "obs/metrics_export.hpp"

#include <cinttypes>
#include <iterator>

#include "obs/manifest.hpp"
#include "obs/probe.hpp"

namespace mstc::obs {

namespace {

/// Ledger statistics every snapshot reports, in emission order.
struct StatColumn {
  const char* label;
  double LedgerStat::* value;
};
constexpr StatColumn kStatColumns[] = {
    {"mean", &LedgerStat::mean},
    {"p50", &LedgerStat::p50},
    {"p95", &LedgerStat::p95},
    {"max", &LedgerStat::max},
};

}  // namespace

MetricsExporter::~MetricsExporter() { close(); }

bool MetricsExporter::open(const Options& options) {
  util::MutexLock lock(mutex_);
  options_ = options;
  started_ns_ = wall_now_ns();
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
  if (!options_.jsonl_path.empty()) {
    jsonl_ = std::fopen(options_.jsonl_path.c_str(), "w");
    if (jsonl_ == nullptr) return false;
  }
  if (!options_.prom_path.empty()) {
    // Probe writability up front so a bad path fails at open, not at the
    // first snapshot deep inside a sweep.
    std::FILE* prom = std::fopen(options_.prom_path.c_str(), "w");
    if (prom == nullptr) return false;
    std::fclose(prom);
  }
  return true;
}

void MetricsExporter::close() {
  util::MutexLock lock(mutex_);
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
  options_.prom_path.clear();
}

void MetricsExporter::record(const RunObservation& observation) {
  util::MutexLock lock(mutex_);
  totals_.merge(observation.counters);
  profiler_.merge(observation.profiler);
  ledger_.add(observation);
  ++completed_;
  emit();
}

std::size_t MetricsExporter::completed() const {
  util::MutexLock lock(mutex_);
  return completed_;
}

void MetricsExporter::emit() {
  emit_jsonl();
  emit_prometheus();
}

void MetricsExporter::emit_jsonl() {
  if (jsonl_ == nullptr) return;
  const double wall_seconds =
      static_cast<double>(wall_now_ns() - started_ns_) * 1e-9;
  std::fprintf(jsonl_,
               "{\"type\":\"metrics\",\"job\":\"%s\",\"completed\":%zu,"
               "\"wall_seconds\":%.6f,\"events_per_second\":%.1f",
               json_escape(options_.job).c_str(), completed_, wall_seconds,
               profiler_.events_per_second());
  std::fprintf(jsonl_, ",\"counters\":{");
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const auto counter = static_cast<Counter>(c);
    std::fprintf(jsonl_, "%s\"%s\":%" PRIu64, c == 0 ? "" : ",",
                 counter_name(counter), totals_.total(counter));
  }
  std::fprintf(jsonl_, "},\"ledger\":{");
  for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
    const auto field = static_cast<LedgerField>(f);
    const LedgerStat stat = ledger_.stat(field);
    std::fprintf(jsonl_, "%s\"%s\":{", f == 0 ? "" : ",",
                 ledger_field_name(field));
    for (std::size_t s = 0; s < std::size(kStatColumns); ++s) {
      std::fprintf(jsonl_, "%s\"%s\":%.9g", s == 0 ? "" : ",",
                   kStatColumns[s].label, stat.*kStatColumns[s].value);
    }
    std::fprintf(jsonl_, "}");
  }
  std::fprintf(jsonl_, "}}\n");
  std::fflush(jsonl_);
}

void MetricsExporter::emit_prometheus() {
  if (options_.prom_path.empty()) return;
  // The exposition format is a point-in-time scrape target, so each
  // snapshot rewrites the whole file rather than appending.
  std::FILE* f = std::fopen(options_.prom_path.c_str(), "w");
  if (f == nullptr) return;
  const std::string job = json_escape(options_.job);
  std::fprintf(f,
               "# TYPE mstc_replications_completed counter\n"
               "mstc_replications_completed{job=\"%s\"} %zu\n",
               job.c_str(), completed_);
  std::fprintf(f,
               "# TYPE mstc_events_per_second gauge\n"
               "mstc_events_per_second{job=\"%s\"} %.1f\n",
               job.c_str(), profiler_.events_per_second());
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const auto counter = static_cast<Counter>(c);
    std::fprintf(f,
                 "# TYPE mstc_%s_total counter\n"
                 "mstc_%s_total{job=\"%s\"} %" PRIu64 "\n",
                 counter_name(counter), counter_name(counter), job.c_str(),
                 totals_.total(counter));
  }
  for (std::size_t l = 0; l < kLedgerFieldCount; ++l) {
    const auto field = static_cast<LedgerField>(l);
    const LedgerStat stat = ledger_.stat(field);
    std::fprintf(f, "# TYPE mstc_ledger_%s gauge\n", ledger_field_name(field));
    for (const StatColumn& column : kStatColumns) {
      std::fprintf(f, "mstc_ledger_%s{job=\"%s\",stat=\"%s\"} %.9g\n",
                   ledger_field_name(field), job.c_str(), column.label,
                   stat.*column.value);
    }
  }
  std::fclose(f);
}

}  // namespace mstc::obs
