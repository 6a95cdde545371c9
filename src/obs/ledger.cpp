#include "obs/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/probe.hpp"

namespace mstc::obs {

namespace {

std::atomic<AllocationCounterFn> g_allocation_counter{nullptr};

double rate(std::uint64_t hits, std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

constexpr double seconds(std::uint64_t nanos) noexcept {
  return static_cast<double>(nanos) * 1e-9;
}

}  // namespace

void set_allocation_counter(AllocationCounterFn counter) noexcept {
  g_allocation_counter.store(counter, std::memory_order_relaxed);
}

std::uint64_t allocation_count() noexcept {
  AllocationCounterFn counter =
      g_allocation_counter.load(std::memory_order_relaxed);
  return counter == nullptr ? 0 : counter();
}

const char* ledger_field_name(LedgerField field) noexcept {
  switch (field) {
    case LedgerField::kTotalSeconds:
      return "total_seconds";
    case LedgerField::kSetupSeconds:
      return "setup_seconds";
    case LedgerField::kTraceGenSeconds:
      return "trace_gen_seconds";
    case LedgerField::kSimSeconds:
      return "sim_seconds";
    case LedgerField::kSnapshotSeconds:
      return "snapshot_seconds";
    case LedgerField::kEvents:
      return "events";
    case LedgerField::kAllocations:
      return "allocations";
    case LedgerField::kPeakRssBytes:
      return "peak_rss_bytes";
    case LedgerField::kRecomputeHitRate:
      return "recompute_hit_rate";
    case LedgerField::kTraceCacheHitRate:
      return "trace_cache_hit_rate";
    case LedgerField::kGridHitRate:
      return "grid_hit_rate";
    case LedgerField::kMediumQuerySeconds:
      return "medium_query_seconds";
    case LedgerField::kViewAssemblySeconds:
      return "view_assembly_seconds";
    case LedgerField::kProtocolSelectSeconds:
      return "protocol_select_seconds";
    case LedgerField::kDeliverySeconds:
      return "delivery_seconds";
    case LedgerField::kCount:
      break;
  }
  return "unknown";
}

void RunLedger::capture(const RunObservation& observation,
                        std::uint64_t wall_ns, std::uint64_t peak_rss,
                        std::uint64_t allocations_before) {
  const Profiler& prof = observation.profiler;
  const CounterRegistry& counters = observation.counters;

  total_wall_ns = wall_ns;
  setup_ns = prof.nanos(Category::kSetup);
  trace_gen_ns = prof.nanos(Category::kTraceGen);
  sim_ns = prof.run_wall_ns();
  snapshot_ns = prof.nanos(Category::kSnapshot);
  events = counters.total(Counter::kSimEventsScheduled);
  const std::uint64_t allocations_now = allocation_count();
  allocations = allocations_now >= allocations_before
                    ? allocations_now - allocations_before
                    : 0;
  peak_rss_bytes = peak_rss;

  const std::uint64_t recompute_skips =
      counters.total(Counter::kTopologyRecomputeSkips);
  recompute_hit_rate =
      rate(recompute_skips,
           counters.total(Counter::kTopologyRecomputes) + recompute_skips);
  const std::uint64_t trace_hits = counters.total(Counter::kTraceCacheHits);
  trace_cache_hit_rate =
      rate(trace_hits, trace_hits + counters.total(Counter::kTraceCacheMisses));
  grid_hit_rate = rate(counters.total(Counter::kMediumCandidatesAccepted),
                       counters.total(Counter::kMediumCandidates));
  medium_query_ns = prof.nanos(Category::kMediumQuery);
  view_assembly_ns = prof.nanos(Category::kViewAssembly);
  protocol_select_ns = prof.nanos(Category::kProtocolSelect);
  delivery_ns = prof.nanos(Category::kDelivery);
  captured = true;
}

double RunLedger::value(LedgerField field) const noexcept {
  switch (field) {
    case LedgerField::kTotalSeconds:
      return seconds(total_wall_ns);
    case LedgerField::kSetupSeconds:
      return seconds(setup_ns);
    case LedgerField::kTraceGenSeconds:
      return seconds(trace_gen_ns);
    case LedgerField::kSimSeconds:
      return seconds(sim_ns);
    case LedgerField::kSnapshotSeconds:
      return seconds(snapshot_ns);
    case LedgerField::kEvents:
      return static_cast<double>(events);
    case LedgerField::kAllocations:
      return static_cast<double>(allocations);
    case LedgerField::kPeakRssBytes:
      return static_cast<double>(peak_rss_bytes);
    case LedgerField::kRecomputeHitRate:
      return recompute_hit_rate;
    case LedgerField::kTraceCacheHitRate:
      return trace_cache_hit_rate;
    case LedgerField::kGridHitRate:
      return grid_hit_rate;
    case LedgerField::kMediumQuerySeconds:
      return seconds(medium_query_ns);
    case LedgerField::kViewAssemblySeconds:
      return seconds(view_assembly_ns);
    case LedgerField::kProtocolSelectSeconds:
      return seconds(protocol_select_ns);
    case LedgerField::kDeliverySeconds:
      return seconds(delivery_ns);
    case LedgerField::kCount:
      break;
  }
  return 0.0;
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

void LedgerSummary::add(const RunLedger& ledger) {
  if (!ledger.captured) return;
  for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
    samples_[f].push_back(ledger.value(static_cast<LedgerField>(f)));
  }
}

void LedgerSummary::merge(const LedgerSummary& other) {
  for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
    samples_[f].insert(samples_[f].end(), other.samples_[f].begin(),
                       other.samples_[f].end());
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
