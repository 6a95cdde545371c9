#include "obs/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "obs/probe.hpp"

namespace mstc::obs {

namespace {

double rate(std::uint64_t hits, std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

constexpr double seconds(std::uint64_t nanos) noexcept {
  return static_cast<double>(nanos) * 1e-9;
}

double category_seconds(const RunObservation& o, Category category) noexcept {
  return seconds(o.profiler.nanos(category));
}

std::uint64_t total(const RunObservation& o, Counter counter) noexcept {
  return o.counters.total(counter);
}

/// One ledger field: its stable name and the formula that reads it.
struct FieldDef {
  const char* name;
  double (*value)(const RunObservation&) noexcept;
};

// Every ledger field, in LedgerField order.
constexpr FieldDef kFields[] = {
    {"total_seconds",
     [](const RunObservation& o) noexcept {
       return seconds(o.ledger.total_wall_ns);
     }},
    {"setup_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kSetup);
     }},
    {"trace_gen_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kTraceGen);
     }},
    {"sim_seconds",
     [](const RunObservation& o) noexcept {
       return seconds(o.profiler.run_wall_ns());
     }},
    {"snapshot_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kSnapshot);
     }},
    {"events",
     [](const RunObservation& o) noexcept {
       return static_cast<double>(o.profiler.events());
     }},
    {"peak_rss_bytes",
     [](const RunObservation& o) noexcept {
       return static_cast<double>(o.ledger.peak_rss_bytes);
     }},
    {"recompute_hit_rate",
     [](const RunObservation& o) noexcept {
       const std::uint64_t skips = total(o, Counter::kTopologyRecomputeSkips);
       return rate(skips, total(o, Counter::kTopologyRecomputes) + skips);
     }},
    {"trace_cache_hit_rate",
     [](const RunObservation& o) noexcept {
       const std::uint64_t hits = total(o, Counter::kTraceCacheHits);
       return rate(hits, hits + total(o, Counter::kTraceCacheMisses));
     }},
    {"grid_hit_rate",
     [](const RunObservation& o) noexcept {
       return rate(total(o, Counter::kMediumCandidatesAccepted),
                   total(o, Counter::kMediumCandidates));
     }},
    {"medium_query_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kMediumQuery);
     }},
    {"view_assembly_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kViewAssembly);
     }},
    {"protocol_select_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kProtocolSelect);
     }},
    {"delivery_seconds",
     [](const RunObservation& o) noexcept {
       return category_seconds(o, Category::kDelivery);
     }},
};
static_assert(std::size(kFields) == kLedgerFieldCount,
              "one kFields row per LedgerField");

}  // namespace

const char* ledger_field_name(LedgerField field) noexcept {
  return kFields[static_cast<std::size_t>(field)].name;
}

double ledger_value(const RunObservation& observation,
                    LedgerField field) noexcept {
  return kFields[static_cast<std::size_t>(field)].value(observation);
}

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the ceil(p/100 * n)-th smallest, 1-based, clamped.
  const double raw = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t rank = static_cast<std::size_t>(
      std::clamp(raw, 1.0, static_cast<double>(sorted.size())));
  return sorted[rank - 1];
}

void LedgerSummary::add(const RunObservation& observation) {
  if (!observation.ledger.captured) return;
  for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
    samples_[f].push_back(
        ledger_value(observation, static_cast<LedgerField>(f)));
  }
}

LedgerStat LedgerSummary::stat(LedgerField field) const {
  const std::vector<double>& samples =
      samples_[static_cast<std::size_t>(field)];
  LedgerStat out;
  out.count = samples.size();
  if (samples.empty()) return out;
  double sum = 0.0;
  double max = samples.front();
  for (double sample : samples) {
    sum += sample;
    max = std::max(max, sample);
  }
  out.mean = sum / static_cast<double>(samples.size());
  out.p50 = percentile(samples, 50.0);
  out.p95 = percentile(samples, 95.0);
  out.max = max;
  return out;
}

}  // namespace mstc::obs
