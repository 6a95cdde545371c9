#include "obs/counters.hpp"

#include <limits>

namespace mstc::obs {

const char* counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kHelloTx:
      return "hello_tx";
    case Counter::kHelloRx:
      return "hello_rx";
    case Counter::kHelloLossDrops:
      return "hello_loss_drops";
    case Counter::kViewSyncs:
      return "view_syncs";
    case Counter::kTopologyRecomputes:
      return "topology_recomputes";
    case Counter::kTopologyRecomputeSkips:
      return "topology_recompute_skips";
    case Counter::kViewLinksEvaluated:
      return "view_links_evaluated";
    case Counter::kLinkRemovals:
      return "link_removals";
    case Counter::kBufferZoneExpansions:
      return "buffer_zone_expansions";
    case Counter::kSyncFloodForwards:
      return "sync_flood_forwards";
    case Counter::kBroadcastForwards:
      return "broadcast_forwards";
    case Counter::kFloodDeliveries:
      return "flood_deliveries";
    case Counter::kMediumDeliveries:
      return "medium_deliveries";
    case Counter::kMediumGridRebuilds:
      return "medium_grid_rebuilds";
    case Counter::kMediumCandidates:
      return "medium_candidates_examined";
    case Counter::kMediumCandidatesAccepted:
      return "medium_candidates_accepted";
    case Counter::kCdsMarked:
      return "cds_marked";
    case Counter::kCdsPruned:
      return "cds_pruned";
    case Counter::kEpidemicTransfers:
      return "epidemic_transfers";
    case Counter::kEpidemicDeliveries:
      return "epidemic_deliveries";
    case Counter::kSnapshots:
      return "snapshots";
    case Counter::kSnapshotLinksExamined:
      return "snapshot_links_examined";
    case Counter::kSimEventsScheduled:
      return "sim_events_scheduled";
    case Counter::kTraceCacheHits:
      return "trace_cache_hits";
    case Counter::kTraceCacheMisses:
      return "trace_cache_misses";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

const char* hist_name(Hist hist) noexcept {
  switch (hist) {
    case Hist::kFloodDeliveryRatio:
      return "flood_delivery_ratio";
    case Hist::kSnapshotConnectivity:
      return "snapshot_connectivity";
    case Hist::kEpidemicDelay:
      return "epidemic_delay_s";
    case Hist::kCount:
      break;
  }
  return "unknown";
}

namespace {

std::vector<double> default_edges(Hist hist) {
  switch (hist) {
    case Hist::kFloodDeliveryRatio:
    case Hist::kSnapshotConnectivity: {
      // 20 uniform buckets over [0, 1]; overflow catches exactly-1.0 and
      // anything pathological above it.
      std::vector<double> edges;
      edges.reserve(20);
      for (int i = 1; i <= 20; ++i) edges.push_back(0.05 * i);
      return edges;
    }
    case Hist::kEpidemicDelay:
      return {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
    case Hist::kCount:
      break;
  }
  return {};
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), counts_(edges_.size() + 1, 0) {}

void Histogram::add(double value) noexcept {
  if (counts_.empty()) return;  // default-constructed: no buckets
  std::size_t bucket = edges_.size();  // overflow by default
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (value < edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++total_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.total_ == 0) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  // Same catalogue entry => same edges; merging mismatched histograms is a
  // programming error we degrade gracefully on by folding into overflow.
  if (counts_.size() == other.counts_.size()) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  } else {
    counts_.back() += other.total_;
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::upper_edge(std::size_t i) const noexcept {
  if (i < edges_.size()) return edges_[i];
  return std::numeric_limits<double>::infinity();
}

CounterRegistry::CounterRegistry() {
  for (std::size_t h = 0; h < kHistCount; ++h) {
    histograms_[h] = Histogram(default_edges(static_cast<Hist>(h)));
  }
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    totals_[c] += other.totals_[c];
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    histograms_[h].merge(other.histograms_[h]);
  }
}

}  // namespace mstc::obs
